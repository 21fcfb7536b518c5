package dmatch

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"dcer/internal/chase"
	"dcer/internal/telemetry"
	"dcer/internal/wire"
)

// link is the master's handle on one worker slot, and the only thing the
// master loop knows about where a worker runs. The master sends Assign,
// Step and Done; whatever comes back — a Delta, the final stats, or the
// worker's death — arrives as a linkEvent on the run's one event channel.
type link interface {
	// send hands one message to the worker without waiting for it to be
	// executed, and never blocks on a dead worker. tc is the superstep's
	// trace context, of use only to a worker in the master's process.
	send(m wire.Msg, tc telemetry.TraceContext)
	// close releases the link; a worker still behind it stops. The master
	// calls it once per link.
	close()
}

// linkEvent is one occurrence on a link: a superstep's delta, the final
// stats, or a terminal error (the worker is gone).
type linkEvent struct {
	w     int
	delta *wire.Delta
	stats *chase.Stats
	err   error
}

// loopLink runs its worker as a goroutine of the master's process and
// hands the decoded message structs over a channel: the distributed
// protocol on loopback, with no bytes encoded.
type loopLink struct {
	ch chan loopMsg
	// building counts the engines under construction across the run's
	// loopback links. Workers of one process share its cores, so a Step
	// starts only once every Assign sent before it has been handled: the
	// step's BusyNs — the timeline's busy time and skew — then times the
	// chase alone, not its overlap with a neighbour's engine build.
	building *sync.WaitGroup
}

type loopMsg struct {
	m  wire.Msg
	tc telemetry.TraceContext
}

func newLoopLink(w *worker, building *sync.WaitGroup, events chan<- linkEvent) loopLink {
	// Two slots: the master sends at most Assign+Step before it waits for
	// the worker's reply.
	l := loopLink{make(chan loopMsg, 2), building}
	go func() {
		dead := false // a dead worker discards until the master closes
		for lm := range l.ch {
			if !dead {
				if lm.m.Type == wire.MsgStep {
					building.Wait()
				}
				delta, stats, err := w.handle(lm.m, lm.tc)
				if delta != nil || stats != nil || err != nil {
					events <- linkEvent{w: w.id, delta: delta, stats: stats, err: err}
				}
				dead = err != nil
			}
			if lm.m.Type == wire.MsgAssign {
				building.Done()
			}
		}
	}()
	return l
}

func (l loopLink) send(m wire.Msg, tc telemetry.TraceContext) {
	if m.Type == wire.MsgAssign {
		l.building.Add(1)
	}
	l.ch <- loopMsg{m, tc}
}
func (l loopLink) close() { close(l.ch) }

// tcpLink reaches a worker process over one TCP connection. A sender
// goroutine owns the connection's Encoder (and its reused frame buffer),
// so the master enqueues all n superstep inboxes and the first workers
// start computing while later inboxes are still being encoded and
// flushed; a reader goroutine decodes the worker's frames into events.
type tcpLink struct {
	id     int
	conn   net.Conn
	sendCh chan wire.Msg
}

// newTCPLink takes over an accepted connection whose Hello dec has
// already consumed. silence is the heartbeat timeout.
func newTCPLink(id int, conn net.Conn, dec *wire.Decoder, stats *wire.Stats, silence time.Duration, events chan<- linkEvent) *tcpLink {
	// Two slots, as for loopLink.
	l := &tcpLink{id: id, conn: conn, sendCh: make(chan wire.Msg, 2)}
	go l.sender(wire.NewEncoder(conn, stats), events)
	go l.reader(dec, silence, events)
	return l
}

func (l *tcpLink) send(m wire.Msg, _ telemetry.TraceContext) { l.sendCh <- m }

func (l *tcpLink) close() {
	l.conn.Close()
	close(l.sendCh)
}

// sender drains the outbound queue, encoding and flushing each message.
// On a write error it reports death once and keeps draining so the master
// never blocks enqueueing to a dead worker.
func (l *tcpLink) sender(enc *wire.Encoder, events chan<- linkEvent) {
	for m := range l.sendCh {
		var err error
		switch m.Type {
		case wire.MsgAssign:
			err = enc.Assign(m.Assign)
		case wire.MsgStep:
			err = enc.Step(m.Step)
		default:
			err = enc.Done()
		}
		if err != nil {
			events <- linkEvent{w: l.id, err: fmt.Errorf("send: %w", err)}
			for range l.sendCh {
			}
			return
		}
	}
}

// reader decodes inbound frames until the connection dies. It is also the
// heartbeat watchdog: workers Pong on an interval, so a read that sees no
// frame for the whole timeout means a dead or wedged worker, and the
// deadline error surfaces like any other death.
func (l *tcpLink) reader(dec *wire.Decoder, silence time.Duration, events chan<- linkEvent) {
	for {
		l.conn.SetReadDeadline(time.Now().Add(silence))
		msg, err := dec.Next()
		ev := linkEvent{w: l.id, err: err}
		switch {
		case err != nil:
		case msg.Type == wire.MsgPong:
			continue // liveness only
		case msg.Type == wire.MsgDelta:
			ev.delta = &msg.Delta
		case msg.Type == wire.MsgStats:
			ev.stats = new(chase.Stats)
			ev.err = json.Unmarshal(msg.StatsJSON, ev.stats)
		default:
			ev.err = fmt.Errorf("dmatch: unexpected %d frame from worker", msg.Type)
		}
		events <- ev
		if ev.err != nil {
			return
		}
	}
}
