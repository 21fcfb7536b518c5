package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"dcer/internal/chase"
	"dcer/internal/relation"
)

// randFacts builds a deterministic pseudo-random fact batch drawing model
// names from a small pool (the realistic shape: few classifiers, many
// facts).
func randFacts(rng *rand.Rand, n int) []chase.Fact {
	models := []string{"lev075", "jaro085", "bert-mini", "ditto"}
	facts := make([]chase.Fact, n)
	for i := range facts {
		f := chase.Fact{
			A: relation.TID(rng.Intn(1 << 20)),
			B: relation.TID(rng.Intn(1 << 20)),
		}
		if rng.Intn(3) == 0 {
			f.Kind = chase.FactML
			f.Model = models[rng.Intn(len(models))]
		} else {
			f.Kind = chase.FactMatch
		}
		facts[i] = f
	}
	return facts
}

func factsEqual(a, b []chase.Fact) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRoundTripAllMessages drives every message type through an
// encode/decode cycle on one stream and checks field-for-field identity.
func TestRoundTripAllMessages(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var buf bytes.Buffer
	stats := &Stats{}
	enc := NewEncoder(&buf, stats)

	hello := Hello{Version: Version, Worker: 3, DatasetSize: 12345, Digest: 0xfedcba9876543210}
	assign := Assign{
		NoMQO:   true,
		Extents: [][]int{{2, 1, 2}, {}, {4, 16}},
		Owned:   [][]uint64{{0b1001}, {1}, {1<<63 | 7}},
		Replay:  randFacts(rng, 40),
	}
	step := Step{Step: 12, Facts: randFacts(rng, 100)}
	delta := Delta{Step: 12, BusyNs: 987654321, Facts: randFacts(rng, 55)}
	js := []byte(`{"valuations": 42}`)

	for _, err := range []error{
		enc.Hello(hello), enc.Assign(assign), enc.Step(step),
		enc.Delta(delta), enc.Pong(), enc.Done(), enc.StatsJSON(js),
	} {
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
	}

	dec := NewDecoder(bytes.NewReader(buf.Bytes()), stats)
	m, err := dec.Next()
	if err != nil || m.Type != MsgHello || m.Hello != hello {
		t.Fatalf("hello round trip: %+v %v", m, err)
	}
	m, err = dec.Next()
	if err != nil || m.Type != MsgAssign {
		t.Fatalf("assign round trip: %v", err)
	}
	if m.Assign.NoMQO != assign.NoMQO {
		t.Fatalf("assign fields: got %+v", m.Assign)
	}
	if fmt.Sprint(m.Assign.Extents, m.Assign.Owned) != fmt.Sprint(assign.Extents, assign.Owned) {
		t.Fatalf("assign cells: got %v %v want %v %v", m.Assign.Extents, m.Assign.Owned, assign.Extents, assign.Owned)
	}
	if !factsEqual(m.Assign.Replay, assign.Replay) {
		t.Fatalf("assign replay mismatch")
	}
	m, err = dec.Next()
	if err != nil || m.Type != MsgStep || m.Step.Step != step.Step || !factsEqual(m.Step.Facts, step.Facts) {
		t.Fatalf("step round trip: %v", err)
	}
	m, err = dec.Next()
	if err != nil || m.Type != MsgDelta || m.Delta.Step != delta.Step ||
		m.Delta.BusyNs != delta.BusyNs || !factsEqual(m.Delta.Facts, delta.Facts) {
		t.Fatalf("delta round trip: %v", err)
	}
	if m, err = dec.Next(); err != nil || m.Type != MsgPong {
		t.Fatalf("pong round trip: %v", err)
	}
	if m, err = dec.Next(); err != nil || m.Type != MsgDone {
		t.Fatalf("done round trip: %v", err)
	}
	m, err = dec.Next()
	if err != nil || m.Type != MsgStats || string(m.StatsJSON) != string(js) {
		t.Fatalf("stats round trip: %v", err)
	}
	if _, err = dec.Next(); err != io.EOF {
		t.Fatalf("clean end: got %v, want io.EOF", err)
	}

	if stats.BytesOut.Load() != int64(buf.Len()) {
		t.Fatalf("BytesOut %d != stream length %d", stats.BytesOut.Load(), buf.Len())
	}
	if stats.BytesIn.Load() != int64(buf.Len()) {
		t.Fatalf("BytesIn %d != stream length %d", stats.BytesIn.Load(), buf.Len())
	}
	if stats.FramesOut.Load() != 7 || stats.FramesIn.Load() != 7 {
		t.Fatalf("frames: out %d in %d, want 7/7", stats.FramesOut.Load(), stats.FramesIn.Load())
	}
}

// TestRoundTripRandomBatches is the codec property test: many random fact
// batches through one connection, byte-identical on the far side.
func TestRoundTripRandomBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var buf bytes.Buffer
	enc := NewEncoder(&buf, nil)
	var sent [][]chase.Fact
	for i := 0; i < 50; i++ {
		facts := randFacts(rng, rng.Intn(200))
		sent = append(sent, facts)
		if err := enc.Step(Step{Step: i, Facts: facts}); err != nil {
			t.Fatalf("encode batch %d: %v", i, err)
		}
	}
	dec := NewDecoder(bytes.NewReader(buf.Bytes()), nil)
	for i, want := range sent {
		m, err := dec.Next()
		if err != nil {
			t.Fatalf("decode batch %d: %v", i, err)
		}
		if m.Step.Step != i || !factsEqual(m.Step.Facts, want) {
			t.Fatalf("batch %d mismatch", i)
		}
	}
}

// TestDictDeltaOncePerDirection checks the symbol-dictionary contract:
// a model name crosses the wire at most once per connection direction, no
// matter how many facts reference it.
func TestDictDeltaOncePerDirection(t *testing.T) {
	var buf bytes.Buffer
	stats := &Stats{}
	enc := NewEncoder(&buf, stats)
	mk := func(model string, n int) []chase.Fact {
		out := make([]chase.Fact, n)
		for i := range out {
			out[i] = chase.Fact{Kind: chase.FactML, Model: model, A: relation.TID(i), B: relation.TID(i + 1)}
		}
		return out
	}
	for step := 0; step < 20; step++ {
		facts := append(mk("model-alpha", 50), mk("model-beta", 50)...)
		if err := enc.Step(Step{Step: step, Facts: facts}); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	if got := stats.DictStrings.Load(); got != 2 {
		t.Fatalf("dictionary shipped %d strings, want 2 (one per unique model)", got)
	}
	// The dictionary must also beat naive inline strings by a wide margin
	// at steady state: 2000 ML facts referencing 2 models.
	naive := stats.NaiveSymBytes.Load()
	actual := stats.DictBytes.Load() + 2000 // ~1 id byte per fact
	if naive < 3*actual {
		t.Fatalf("dictionary ratio too small: naive %dB vs ~%dB shipped", naive, actual)
	}
	dec := NewDecoder(bytes.NewReader(buf.Bytes()), nil)
	for step := 0; step < 20; step++ {
		m, err := dec.Next()
		if err != nil {
			t.Fatalf("decode step %d: %v", step, err)
		}
		for _, f := range m.Step.Facts[:50] {
			if f.Model != "model-alpha" {
				t.Fatalf("step %d: wrong model %q", step, f.Model)
			}
		}
		for _, f := range m.Step.Facts[50:] {
			if f.Model != "model-beta" {
				t.Fatalf("step %d: wrong model %q", step, f.Model)
			}
		}
	}
}

// TestTruncationNeverPanics cuts a valid multi-message stream at every
// byte offset; each prefix must decode to some prefix of the messages and
// then produce io.EOF (clean boundary) or an error — never a panic, never
// a phantom message.
func TestTruncationNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var buf bytes.Buffer
	enc := NewEncoder(&buf, nil)
	if err := enc.Hello(Hello{Version: Version, Worker: 1, DatasetSize: 10, Digest: 2}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Step(Step{Step: 1, Facts: randFacts(rng, 30)}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Delta(Delta{Step: 1, BusyNs: 5, Facts: randFacts(rng, 30)}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut <= len(full); cut++ {
		dec := NewDecoder(bytes.NewReader(full[:cut]), nil)
		msgs := 0
		for {
			_, err := dec.Next()
			if err == nil {
				msgs++
				if msgs > 3 {
					t.Fatalf("cut %d: decoded more messages than were sent", cut)
				}
				continue
			}
			if err == io.EOF {
				break // clean frame boundary
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrFrameTooBig) && cut != len(full) {
				// Mid-frame cuts inside a length-prefixed string can also
				// surface as in-frame bounds errors; any error is fine,
				// a panic is not. Just stop.
				break
			}
			break
		}
	}
}

// TestFrameSizeCap rejects an adversarial length prefix without
// allocating.
func TestFrameSizeCap(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x7f} // uvarint ≈ 34 GB
	dec := NewDecoder(bytes.NewReader(huge), nil)
	_, err := dec.Next()
	if !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("got %v, want ErrFrameTooBig", err)
	}
}

// TestBadDictID rejects a fact referencing an unshipped dictionary entry.
func TestBadDictID(t *testing.T) {
	// Hand-build a Step frame: type, step, 0 dict entries, 1 fact,
	// kind=FactML, dict id 9 (undefined), a, b.
	payload := []byte{MsgStep, 1, 0, 1, byte(chase.FactML), 9, 4, 5}
	var frame []byte
	frame = append(frame, byte(len(payload)))
	frame = append(frame, payload...)
	dec := NewDecoder(bytes.NewReader(frame), nil)
	if _, err := dec.Next(); err == nil {
		t.Fatal("undefined dictionary id decoded without error")
	}
}

// TestTrailingGarbageRejected: extra bytes after a valid message body in
// the same frame are a protocol error.
func TestTrailingGarbageRejected(t *testing.T) {
	payload := []byte{MsgPong, 1, 2, 3}
	frame := append([]byte{byte(len(payload))}, payload...)
	dec := NewDecoder(bytes.NewReader(frame), nil)
	if _, err := dec.Next(); err == nil {
		t.Fatal("trailing frame bytes decoded without error")
	}
}

// assignFrame hand-builds an Assign frame around the given cells bytes
// (the rule count, then per rule the extent count, the extents and the
// bitmap words): no flags, an empty replay.
func assignFrame(cells ...byte) []byte {
	payload := append([]byte{MsgAssign, 0}, cells...)
	payload = append(payload, 0, 0) // no dictionary entries, no facts
	return append([]byte{byte(len(payload))}, payload...)
}

// badAssignFrames are Assign frames whose counts or extents the frame
// cannot hold.
func badAssignFrames() map[string][]byte {
	huge := binary.AppendUvarint(nil, 1<<40)
	return map[string][]byte{
		"rule count past the frame":   assignFrame(100),
		"extent count past the frame": assignFrame(1, 100),
		"extent past the frame":       assignFrame(append([]byte{1, 1}, huge...)...),
		"extents overflowing":         assignFrame(append(append(append([]byte{1, 3}, huge...), huge...), huge...)...),
		"bitmap cut short":            assignFrame(1, 1, 0x80, 0x01, 5),
	}
}

// TestAssignRejectsBadCells: the decoder bounds every count and bitmap of
// an Assign by the frame, so a count, an extent or an extents' product the
// bytes left cannot hold is an error, never a panic or a huge allocation;
// a well-formed frame decodes to its extents and one bitmap word per 64
// cells.
func TestAssignRejectsBadCells(t *testing.T) {
	m, err := NewDecoder(bytes.NewReader(assignFrame(2, 2, 2, 2, 5, 0, 1)), nil).Next()
	if err != nil {
		t.Fatalf("well-formed cells: %v", err)
	}
	if got := fmt.Sprint(m.Assign.Extents, m.Assign.Owned); got != "[[2 2] []] [[5] [1]]" {
		t.Fatalf("well-formed cells decoded to %s, want [[2 2] []] [[5] [1]]", got)
	}
	for name, frame := range badAssignFrames() {
		if _, err := NewDecoder(bytes.NewReader(frame), nil).Next(); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	var buf bytes.Buffer
	if err := NewEncoder(&buf, nil).Assign(Assign{Extents: [][]int{{2, 2}}, Owned: [][]uint64{{1, 2}}}); err == nil {
		t.Error("encoded a bitmap wider than its cube")
	}
}
