package dmatch

import (
	"errors"
	"fmt"
	"net"
	"time"

	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/wire"
)

// DistOptions configures the process-level side of a distributed run;
// everything Γ-relevant stays in Options.
type DistOptions struct {
	// Listen is the TCP address the master binds; "" means 127.0.0.1:0
	// (an ephemeral local port).
	Listen string
	// Spawn starts worker i pointed at the master's address. The CLI
	// re-executes its own binary with -worker; tests dial in-process
	// goroutines. Spawn must not block on the worker's lifetime.
	Spawn func(worker int, addr string) error
	// HeartbeatTimeout is how long a worker may stay silent (no frame, no
	// Pong) before the master declares it dead; 0 means 10s.
	HeartbeatTimeout time.Duration
	// AcceptTimeout bounds the handshake phase; 0 means 30s.
	AcceptTimeout time.Duration
}

// RecoveryEvent describes one worker-failure recovery.
type RecoveryEvent struct {
	// Step is the superstep after which the recovery ran.
	Step int
	// Worker is the dead worker's slot (retired; slots are never reused).
	Worker int
	// BlocksMoved is how many of the dead worker's virtual blocks were
	// reassigned; WorkersRebuilt is how many survivors got new cells.
	BlocksMoved    int
	WorkersRebuilt int
	// RebuildNs is the master-side cost: reassignment, host-bitset
	// rebuild, and replay preparation (the survivors rebuild their engines
	// on their own time).
	RebuildNs int64
}

const (
	defaultHeartbeatTimeout = 10 * time.Second
	defaultAcceptTimeout    = 30 * time.Second
)

// RunDistributed is Run with the n workers as separate processes reached
// over TCP links. Every worker loads the same dataset and rules from disk
// (loading is deterministic) and proves it via the Hello digest
// (fingerprint); the master aborts on mismatch rather than computing a
// wrong Γ over divergent inputs. The returned Result is byte-identical in
// Γ (Matches, Validated, Eq) to Run with the same Options. A worker that
// dies or falls silent has its blocks reassigned to the survivors and the
// run continues.
func RunDistributed(d *relation.Dataset, rules []*rule.Rule, reg *mlpred.Registry, opts Options, dopts DistOptions) (*Result, error) {
	n := opts.Workers
	if n < 1 {
		return nil, errors.New("dmatch: distributed mode needs an explicit worker count")
	}
	if opts.Provenance {
		return nil, errors.New("dmatch: provenance capture is not supported in distributed mode")
	}
	if opts.RebalanceSkew > 0 {
		return nil, errRebalanceSkew
	}
	if dopts.Spawn == nil {
		return nil, errors.New("dmatch: DistOptions.Spawn is required")
	}
	hbTimeout := dopts.HeartbeatTimeout
	if hbTimeout <= 0 {
		hbTimeout = defaultHeartbeatTimeout
	}
	acceptTO := dopts.AcceptTimeout
	if acceptTO <= 0 {
		acceptTO = defaultAcceptTimeout
	}
	listen := dopts.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}

	// Listen and spawn first: the workers' exec and dataset load overlap
	// the master's HyPart pass, and each worker's Hello waits in the
	// accept backlog until the handshake below. From here on every return
	// closes the listener, so a worker whose master gave up sees EOF (or a
	// refused dial) and exits instead of waiting for an assignment.
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("dmatch: listen: %w", err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	for i := 0; i < n; i++ {
		if err := dopts.Spawn(i, addr); err != nil {
			return nil, fmt.Errorf("dmatch: spawn worker %d: %w", i, err)
		}
	}
	digest := fingerprint(d, rules) // while the workers load

	// Handshake: accept n connections and validate each Hello against the
	// master's own view of the inputs.
	connect := func(ms *masterState) error {
		ln.(*net.TCPListener).SetDeadline(time.Now().Add(acceptTO))
		for got := 0; got < n; got++ {
			conn, err := ln.Accept()
			if err != nil {
				return fmt.Errorf("dmatch: accepting workers (%d/%d connected): %w", got, n, err)
			}
			conn.SetReadDeadline(time.Now().Add(acceptTO))
			dec := wire.NewDecoder(conn, ms.wire)
			msg, err := dec.Next()
			if err != nil || msg.Type != wire.MsgHello {
				conn.Close()
				return fmt.Errorf("dmatch: bad handshake: %v", err)
			}
			h := msg.Hello
			switch {
			case h.Version != wire.Version:
				err = fmt.Errorf("protocol version %d, want %d", h.Version, wire.Version)
			case h.Worker < 0 || h.Worker >= n:
				err = fmt.Errorf("worker id %d out of range [0,%d)", h.Worker, n)
			case ms.links[h.Worker] != nil:
				err = fmt.Errorf("duplicate worker id %d", h.Worker)
			case h.Digest != digest:
				err = fmt.Errorf("input fingerprint mismatch: worker has (size=%d digest=%016x), master has (%d %016x)",
					h.DatasetSize, h.Digest, d.Size(), digest)
			}
			if err != nil {
				conn.Close()
				return fmt.Errorf("dmatch: worker handshake: %w", err)
			}
			ms.links[h.Worker] = newTCPLink(h.Worker, conn, dec, ms.wire, hbTimeout, ms.events)
		}
		return nil
	}
	res, err := run(d, rules, opts, n, nil, connect)
	if err == nil {
		opts.Metrics.Counter("dcer_wire_frames_out").Add(res.Wire.FramesOut)
	}
	return res, err
}

// fingerprint digests the inputs a worker must share with its master:
// each relation's name and packed columns, in row order; the symbol
// strings, in Sym order, which give the string words their meaning; and
// each rule's text. A load numbers Syms by first appearance at every
// width, so equal inputs digest equally in every process.
func fingerprint(d *relation.Dataset, rules []*rule.Rule) uint64 {
	var h digest
	for _, r := range d.Relations {
		h.str(r.Schema.Name)
		n := len(r.TIDs())
		h.word(uint64(n))
		for a := range r.Schema.Attrs {
			for _, w := range r.Col(a)[:n] {
				h.word(w)
			}
		}
	}
	syms := d.Syms()
	for i := range syms.Len() {
		h.str(syms.Str(relation.Sym(i)))
	}
	for _, r := range rules {
		h.str(r.String())
	}
	return uint64(h)
}

// digest is a multiply-xor mix over 64-bit words. Each step xors a word
// in, multiplies by an odd constant and folds the high half down: all
// bijections of the state, so two inputs of one length that differ in a
// single word always digest differently.
type digest uint64

func (h *digest) word(w uint64) {
	x := (uint64(*h) ^ w) * 0x9E3779B97F4A7C15
	*h = digest(x ^ x>>32)
}

// str mixes in s's length and then its bytes, eight to a word.
func (h *digest) str(s string) {
	h.word(uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h.word(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
	}
	if len(s) > 0 {
		var w uint64
		for i := range len(s) {
			w |= uint64(s[i]) << (8 * i)
		}
		h.word(w)
	}
}
