package wire

import (
	"fmt"
	"io"
	"math"
	"time"

	"dcer/internal/chase"
	"dcer/internal/hypart"
	"dcer/internal/relation"
)

// Hello is the worker's handshake. DatasetSize/IDSpace/Rules fingerprint
// the worker's locally loaded inputs; the master aborts the run on a
// mismatch instead of silently computing a wrong Γ over divergent data.
type Hello struct {
	Version     uint32
	Worker      int
	DatasetSize int
	IDSpace     int
	Rules       int
}

// EngineOpts is the subset of dmatch.Options a worker needs to construct
// its chase engine; every worker, in process or not, gets it in Assign.
type EngineOpts struct {
	NoMQO            bool
	SequentialDeduce bool
	MaxDeps          int
}

// Assign carries a worker's (re)assignment: engine options, the fragment
// and per-rule scopes (delta-varint packed via hypart), and the fact
// history to replay through A_Δ after the rebuild (empty on the initial
// assignment, the full routed history after a recovery or migration).
type Assign struct {
	Worker, Workers int
	Opts            EngineOpts
	Frag            []relation.TID
	RuleFrags       [][]relation.TID
	Replay          []chase.Fact
}

// Step is one superstep's inbox.
type Step struct {
	Step  int
	Facts []chase.Fact
}

// Delta is one superstep's worker output: the newly deduced facts plus
// the worker's compute time (the master's timeline and rebalancer input).
type Delta struct {
	Step   int
	BusyNs int64
	Facts  []chase.Fact
}

// Msg is one decoded message; Type selects which field is set.
type Msg struct {
	Type      byte
	Hello     Hello
	Assign    Assign
	Step      Step
	Delta     Delta
	StatsJSON []byte
}

// Encoder frames and writes messages; it owns the outbound half of one
// connection's symbol dictionary and must be driven by one goroutine at
// a time (callers serialize with a mutex when a heartbeat goroutine
// shares the connection).
type Encoder struct {
	fw   *frameWriter
	dict *dictOut
}

// NewEncoder builds an encoder over w. stats may be nil.
func NewEncoder(w io.Writer, stats *Stats) *Encoder {
	return &Encoder{fw: newFrameWriter(w, stats), dict: newDictOut()}
}

// writeFacts frames a fact batch: the dictionary delta first (definitions
// before use, in id order), then uvarint-packed facts. Match facts cost
// three varints; ML facts add one dictionary id instead of the model
// string — NaiveSymBytes tracks what inline strings would have cost.
func (e *Encoder) writeFacts(facts []chase.Fact) {
	fw := e.fw
	for _, f := range facts {
		if f.Kind == chase.FactML {
			e.dict.id(f.Model)
			if fw.stats != nil {
				fw.stats.NaiveSymBytes.Add(int64(uvarintLen(uint64(len(f.Model)))) + int64(len(f.Model)))
			}
		}
	}
	fw.writeDictDelta(e.dict)
	fw.uvarint(uint64(len(facts)))
	for _, f := range facts {
		fw.uvarint(uint64(f.Kind))
		if f.Kind == chase.FactML {
			fw.uvarint(e.dict.id(f.Model))
		}
		fw.uvarint(uint64(uint32(f.A)))
		fw.uvarint(uint64(uint32(f.B)))
	}
}

// uvarintLen is the encoded size of x.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func (e *Encoder) timeEncode(t0 time.Time) {
	if e.fw.stats != nil {
		e.fw.stats.EncodeNs.Add(since(t0))
	}
}

// Hello writes the handshake frame.
func (e *Encoder) Hello(h Hello) error {
	t0 := time.Now()
	defer e.timeEncode(t0)
	fw := e.fw
	fw.begin(MsgHello)
	fw.uvarint(uint64(h.Version))
	fw.uvarint(uint64(h.Worker))
	fw.uvarint(uint64(h.DatasetSize))
	fw.uvarint(uint64(h.IDSpace))
	fw.uvarint(uint64(h.Rules))
	return fw.flush()
}

// Assign writes a fragment (re)assignment frame.
func (e *Encoder) Assign(a Assign) error {
	t0 := time.Now()
	defer e.timeEncode(t0)
	fw := e.fw
	fw.begin(MsgAssign)
	fw.uvarint(uint64(a.Worker))
	fw.uvarint(uint64(a.Workers))
	var flags uint64
	if a.Opts.NoMQO {
		flags |= 1
	}
	if a.Opts.SequentialDeduce {
		flags |= 2
	}
	fw.uvarint(flags)
	fw.varint(int64(a.Opts.MaxDeps))
	fw.buf = hypart.AppendFragment(fw.buf, a.Frag, a.RuleFrags)
	e.writeFacts(a.Replay)
	return fw.flush()
}

// Step writes one superstep inbox frame.
func (e *Encoder) Step(s Step) error {
	t0 := time.Now()
	defer e.timeEncode(t0)
	fw := e.fw
	fw.begin(MsgStep)
	fw.uvarint(uint64(s.Step))
	e.writeFacts(s.Facts)
	return fw.flush()
}

// Delta writes one superstep result frame.
func (e *Encoder) Delta(d Delta) error {
	t0 := time.Now()
	defer e.timeEncode(t0)
	fw := e.fw
	fw.begin(MsgDelta)
	fw.uvarint(uint64(d.Step))
	fw.uvarint(uint64(d.BusyNs))
	e.writeFacts(d.Facts)
	return fw.flush()
}

// Pong writes a liveness beat.
func (e *Encoder) Pong() error {
	e.fw.begin(MsgPong)
	return e.fw.flush()
}

// Done writes the shutdown frame.
func (e *Encoder) Done() error {
	e.fw.begin(MsgDone)
	return e.fw.flush()
}

// StatsJSON writes the worker's final chase.Stats as an opaque JSON blob
// (one-shot, off the hot path).
func (e *Encoder) StatsJSON(js []byte) error {
	t0 := time.Now()
	defer e.timeEncode(t0)
	fw := e.fw
	fw.begin(MsgStats)
	fw.bytes(js)
	return fw.flush()
}

// Decoder reads frames and decodes messages; it owns the inbound half of
// the connection's symbol dictionary, so frames must be decoded in stream
// order (dictionary deltas are cumulative).
type Decoder struct {
	fr   *frameReader
	dict *dictIn
}

// NewDecoder builds a decoder over r. stats may be nil.
func NewDecoder(r io.Reader, stats *Stats) *Decoder {
	return &Decoder{fr: newFrameReader(r, stats), dict: &dictIn{}}
}

// readFacts decodes a fact batch (dictionary delta, then facts).
func (d *Decoder) readFacts(p *payload) ([]chase.Fact, error) {
	if err := p.readDictDelta(d.dict); err != nil {
		return nil, err
	}
	n, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	// A match fact costs at least three bytes on the wire; reject counts
	// the frame cannot hold before allocating.
	if n > uint64(p.remaining()/3)+1 {
		return nil, fmt.Errorf("%w: fact count %d exceeds %d remaining bytes", ErrTruncated, n, p.remaining())
	}
	if n == 0 {
		return nil, nil
	}
	facts := make([]chase.Fact, 0, n)
	for i := uint64(0); i < n; i++ {
		kind, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		var f chase.Fact
		switch chase.FactKind(kind) {
		case chase.FactMatch:
			f.Kind = chase.FactMatch
		case chase.FactML:
			f.Kind = chase.FactML
			id, err := p.uvarint()
			if err != nil {
				return nil, err
			}
			if f.Model, err = d.dict.str(id); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("wire: unknown fact kind %d", kind)
		}
		a, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		if a > math.MaxUint32 || b > math.MaxUint32 {
			return nil, fmt.Errorf("wire: tuple id out of range (%d, %d)", a, b)
		}
		f.A, f.B = relation.TID(uint32(a)), relation.TID(uint32(b))
		facts = append(facts, f)
	}
	return facts, nil
}

// Next reads and decodes one message. It blocks on the underlying reader;
// DecodeNs covers only the parse after the frame arrived. io.EOF is
// returned verbatim on a clean frame boundary.
func (d *Decoder) Next() (Msg, error) {
	body, err := d.fr.next()
	if err != nil {
		return Msg{}, err
	}
	t0 := time.Now()
	defer func() {
		if d.fr.stats != nil {
			d.fr.stats.DecodeNs.Add(since(t0))
		}
	}()
	if len(body) == 0 {
		return Msg{}, fmt.Errorf("%w: empty frame", ErrTruncated)
	}
	m := Msg{Type: body[0]}
	p := &payload{b: body, off: 1}
	switch m.Type {
	case MsgHello:
		v, err := p.uvarint()
		if err != nil {
			return Msg{}, err
		}
		if v > math.MaxUint32 {
			return Msg{}, fmt.Errorf("wire: bad hello version %d", v)
		}
		m.Hello.Version = uint32(v)
		if m.Hello.Worker, err = p.intField("worker"); err != nil {
			return Msg{}, err
		}
		if m.Hello.DatasetSize, err = p.intField("dataset size"); err != nil {
			return Msg{}, err
		}
		if m.Hello.IDSpace, err = p.intField("id space"); err != nil {
			return Msg{}, err
		}
		if m.Hello.Rules, err = p.intField("rule count"); err != nil {
			return Msg{}, err
		}
	case MsgAssign:
		if m.Assign.Worker, err = p.intField("worker"); err != nil {
			return Msg{}, err
		}
		if m.Assign.Workers, err = p.intField("workers"); err != nil {
			return Msg{}, err
		}
		flags, err := p.uvarint()
		if err != nil {
			return Msg{}, err
		}
		m.Assign.Opts.NoMQO = flags&1 != 0
		m.Assign.Opts.SequentialDeduce = flags&2 != 0
		if m.Assign.Opts.MaxDeps, err = p.varintInt("max deps"); err != nil {
			return Msg{}, err
		}
		frag, ruleFrags, rest, err := hypart.ReadFragment(p.b[p.off:])
		if err != nil {
			return Msg{}, err
		}
		m.Assign.Frag, m.Assign.RuleFrags = frag, ruleFrags
		p.off = len(p.b) - len(rest)
		if m.Assign.Replay, err = d.readFacts(p); err != nil {
			return Msg{}, err
		}
	case MsgStep:
		if m.Step.Step, err = p.intField("step"); err != nil {
			return Msg{}, err
		}
		if m.Step.Facts, err = d.readFacts(p); err != nil {
			return Msg{}, err
		}
	case MsgDelta:
		if m.Delta.Step, err = p.intField("step"); err != nil {
			return Msg{}, err
		}
		busy, err := p.uvarint()
		if err != nil {
			return Msg{}, err
		}
		if busy > math.MaxInt64 {
			return Msg{}, fmt.Errorf("wire: busy ns out of range")
		}
		m.Delta.BusyNs = int64(busy)
		if m.Delta.Facts, err = d.readFacts(p); err != nil {
			return Msg{}, err
		}
	case MsgPong, MsgDone:
		// no body
	case MsgStats:
		b, err := p.bytes()
		if err != nil {
			return Msg{}, err
		}
		m.StatsJSON = append([]byte(nil), b...)
	default:
		return Msg{}, fmt.Errorf("wire: unknown message type %d", m.Type)
	}
	if err := p.done(); err != nil {
		return Msg{}, err
	}
	return m, nil
}

// varint writes a zigzag-encoded signed word.
func (fw *frameWriter) varint(x int64) {
	fw.uvarint(uint64(x<<1) ^ uint64(x>>63))
}

// intField reads a uvarint bounded to the int range.
func (p *payload) intField(what string) (int, error) {
	x, err := p.uvarint()
	if err != nil {
		return 0, err
	}
	if x > math.MaxInt32 {
		return 0, fmt.Errorf("wire: %s %d out of range", what, x)
	}
	return int(x), nil
}

// varintInt reads a zigzag-encoded signed word bounded to int32.
func (p *payload) varintInt(what string) (int, error) {
	u, err := p.uvarint()
	if err != nil {
		return 0, err
	}
	x := int64(u>>1) ^ -int64(u&1)
	if x > math.MaxInt32 || x < math.MinInt32 {
		return 0, fmt.Errorf("wire: %s %d out of range", what, x)
	}
	return int(x), nil
}
