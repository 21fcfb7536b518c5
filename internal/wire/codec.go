package wire

import (
	"fmt"
	"io"
	"math"
	"time"

	"dcer/internal/chase"
	"dcer/internal/relation"
)

// Hello is the worker's handshake. Digest fingerprints the worker's
// locally loaded inputs — every relation's packed columns, the symbol
// strings and the rules' text (dmatch computes it) — and the master aborts
// the run when it differs from its own instead of computing a wrong Γ over
// divergent data. DatasetSize rides along for the error message.
type Hello struct {
	Version     uint32
	Worker      int
	DatasetSize int
	Digest      uint64
}

// Assign carries a worker's (re)assignment: the one engine option that
// crosses the wire, per rule the cube and the cells the worker owns, and
// the fact history to replay through A_Δ after the rebuild (empty on the
// initial assignment, the full routed history after a recovery).
type Assign struct {
	// NoMQO is dmatch.Options.NoMQO: the worker's engine shares no
	// indexes or ML stores across rules. Bit 0 of the frame's flag word.
	NoMQO bool
	// Extents[r] lists rule r's cube extents (hypart.Cube.Extents), from
	// which, with the MQO plan, the worker derives the cube; Owned[r] is
	// the bitmap of its cells the worker owns (hypart.Cube.Owned), one
	// bit per cell.
	Extents [][]int
	Owned   [][]uint64
	Replay  []chase.Fact
}

// Step is one superstep's inbox.
type Step struct {
	Step  int
	Facts []chase.Fact
}

// Delta is one superstep's worker output: the newly deduced facts plus
// the worker's compute time (the master's timeline input).
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
	fw.uvarint(h.Digest)
	return fw.flush()
}

// Assign writes a (re)assignment frame: the flag word, the rule count and
// per rule its extent count, the extents and the owned-cell bitmap's
// words, as many as the extents' product takes.
func (e *Encoder) Assign(a Assign) error {
	t0 := time.Now()
	defer e.timeEncode(t0)
	fw := e.fw
	fw.begin(MsgAssign)
	var flags uint64
	if a.NoMQO {
		flags |= 1
	}
	fw.uvarint(flags)
	fw.uvarint(uint64(len(a.Extents)))
	for r, ext := range a.Extents {
		fw.uvarint(uint64(len(ext)))
		cells := 1
		for _, x := range ext {
			fw.uvarint(uint64(x))
			cells *= x
		}
		if len(a.Owned) != len(a.Extents) || len(a.Owned[r]) != (cells+63)>>6 {
			return fmt.Errorf("wire: assign's rule %d has no bitmap of %d cells", r, cells)
		}
		for _, w := range a.Owned[r] {
			fw.uvarint(w)
		}
	}
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
		if m.Hello.Digest, err = p.uvarint(); err != nil {
			return Msg{}, err
		}
	case MsgAssign:
		flags, err := p.uvarint()
		if err != nil {
			return Msg{}, err
		}
		m.Assign.NoMQO = flags&1 != 0
		if err := p.readCells(&m.Assign); err != nil {
			return Msg{}, err
		}
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

// readCells reads an Assign's per-rule extents and owned-cell bitmaps
// into a. Every count is bounded by the bytes left in the frame, each
// extent and each bitmap word costing one at least, so a corrupt count or
// extent fails before anything is allocated for it.
func (p *payload) readCells(a *Assign) error {
	nr, err := p.length()
	if err != nil {
		return err
	}
	a.Extents, a.Owned = make([][]int, nr), make([][]uint64, nr)
	for r := range a.Extents {
		nd, err := p.length()
		if err != nil {
			return err
		}
		a.Extents[r] = make([]int, nd)
		cells := uint64(1)
		for i := range a.Extents[r] {
			x, err := p.uvarint()
			if limit := uint64(64*p.remaining() + 64); err == nil && (x > limit || x != 0 && cells > limit/x) {
				err = fmt.Errorf("%w: rule %d: extent %d exceeds what %d remaining bytes hold", ErrTruncated, r, x, p.remaining())
			}
			if err != nil {
				return err
			}
			a.Extents[r][i], cells = int(x), cells*x
		}
		a.Owned[r] = make([]uint64, (cells+63)>>6)
		for i := range a.Owned[r] {
			if a.Owned[r][i], err = p.uvarint(); err != nil {
				return err
			}
		}
	}
	return nil
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
