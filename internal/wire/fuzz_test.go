package wire

import (
	"bytes"
	"io"
	"testing"

	"dcer/internal/chase"
)

// FuzzDecoder feeds arbitrary bytes to the frame/message decoder. The
// contract under fuzzing is purely "no panic, no runaway allocation":
// every malformed input must surface as an error (or a clean io.EOF),
// which is what lets the master treat any decode failure as a dead
// worker instead of a crashed master.
func FuzzDecoder(f *testing.F) {
	// Seed with valid streams so the fuzzer starts from structure.
	seed := func(build func(*Encoder) error) {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, nil)
		if err := build(enc); err == nil {
			f.Add(buf.Bytes())
		}
	}
	seed(func(e *Encoder) error {
		return e.Hello(Hello{Version: Version, Worker: 1, DatasetSize: 100, Digest: 3})
	})
	seed(func(e *Encoder) error {
		facts := []chase.Fact{
			{Kind: chase.FactMatch, A: 1, B: 2},
			{Kind: chase.FactML, Model: "lev075", A: 3, B: 4},
		}
		if err := e.Step(Step{Step: 2, Facts: facts}); err != nil {
			return err
		}
		return e.Delta(Delta{Step: 2, BusyNs: 42, Facts: facts})
	})
	seed(func(e *Encoder) error {
		return e.Assign(Assign{
			NoMQO:   true,
			Extents: [][]int{{2, 1, 2}, {1}, {4, 32}},
			Owned:   [][]uint64{{0b0110}, {1}, {0xf0f0, 1 << 63}},
			Replay:  []chase.Fact{{Kind: chase.FactMatch, A: 8, B: 9}},
		})
	})
	seed(func(e *Encoder) error {
		if err := e.Pong(); err != nil {
			return err
		}
		if err := e.StatsJSON([]byte(`{"x":1}`)); err != nil {
			return err
		}
		return e.Done()
	})
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f})
	for _, frame := range badAssignFrames() {
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data), nil)
		for i := 0; i < 1024; i++ { // bound work per input
			_, err := dec.Next()
			if err != nil {
				if err != io.EOF && err.Error() == "" {
					t.Fatal("empty error message")
				}
				return
			}
		}
	})
}

// FuzzRoundTrip encodes decoder-accepted fact batches back and checks the
// stream re-decodes identically — the codec is its own inverse on the
// valid subset the fuzzer discovers.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{MsgStep, 1, 0, 1, byte(chase.FactMatch), 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		frame := append([]byte{byte(len(data) & 0x7f)}, data[:len(data)&0x7f]...)
		dec := NewDecoder(bytes.NewReader(frame), nil)
		m, err := dec.Next()
		if err != nil || m.Type != MsgStep {
			return
		}
		var buf bytes.Buffer
		enc := NewEncoder(&buf, nil)
		if err := enc.Step(m.Step); err != nil {
			t.Fatalf("re-encode of decoded message failed: %v", err)
		}
		dec2 := NewDecoder(bytes.NewReader(buf.Bytes()), nil)
		m2, err := dec2.Next()
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if m2.Step.Step != m.Step.Step || len(m2.Step.Facts) != len(m.Step.Facts) {
			t.Fatalf("round trip changed the message")
		}
		for i := range m.Step.Facts {
			if m.Step.Facts[i] != m2.Step.Facts[i] {
				t.Fatalf("fact %d changed in round trip", i)
			}
		}
	})
}
