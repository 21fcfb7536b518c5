// Package wire is the protocol DMatch's master and workers speak — the
// Hello / Assign / Step / Delta / Pong / Done / Stats messages — and its
// compact binary encoding. In-process workers are handed the message
// structs as they are; worker processes get them as frames on a TCP
// stream.
//
// Layout. The stream is a sequence of length-prefixed frames:
//
//	uvarint(payload length) | payload
//
// where payload[0] is the message type and the rest is message-specific,
// built entirely from varint-packed uint64 words (the packed-uint64
// discipline of the columnar arenas) and length-prefixed byte strings.
// Frames are size-capped (MaxFrame) so a corrupt or adversarial length
// prefix cannot force a huge allocation, and every decode path returns an
// error — never panics — on truncated or malformed input (fuzzed in
// fuzz_test.go).
//
// Symbol dictionary. Classifier names (and any future interned symbol)
// cross the wire as dense dictionary ids. Each fact batch is preceded by
// the dictionary delta — only the strings the receiving side has not seen
// on this connection direction yet, in id order — so a symbol crosses the
// wire at most once per worker per direction, mirroring how
// relation.SymTab interns each string once per process (see dict.go).
//
// Concurrency. An Encoder and a Decoder each belong to one goroutine;
// a connection therefore gets one of each per direction. Stats is the
// shared, atomically-updated tally a master aggregates over all its
// worker connections.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Version is the protocol version carried in Hello; mismatches abort the
// handshake rather than misdecoding frames. Version 2 shrank Assign's
// engine options to one flag word and one varint; version 3 dropped the
// varint with the dependency store it sized, leaving the flag word;
// version 4 retired the flag word's bit 1 (the worker engine's sequential
// schedule), leaving bit 0, NoMQO; version 5 dropped the TID lists' flag
// byte and raw-varint form, leaving one form of strictly ascending
// deltas; version 6 replaced Assign's TID lists (a fragment and one scope
// per rule) with each rule's cube extents and owned-cell bitmap, dropped
// Assign's worker id and count, which no worker read, and Hello's id
// space, which equals the dataset size; version 7 replaced Hello's rule
// count with a 64-bit digest of the worker's dataset and rules.
const Version = 7

// MaxFrame caps one frame's payload so a corrupt length prefix cannot
// force an unbounded allocation. 256 MiB comfortably holds the largest
// realistic superstep batch (tens of millions of varint facts).
const MaxFrame = 1 << 28

// Message types (payload[0]).
const (
	// MsgHello is the worker's handshake: version, worker slot, dataset
	// size and the digest of its inputs, which the master validates
	// against its own load.
	MsgHello byte = 1 + iota
	// MsgAssign carries a worker's share of the partition: the NoMQO
	// flag, per rule the extents of its hypercube and the bitmap of the
	// cells the worker owns, and the fact history to replay (non-empty
	// when a rebuild follows a recovery).
	MsgAssign
	// MsgStep delivers one superstep's inbox to a worker.
	MsgStep
	// MsgDelta returns one superstep's newly deduced facts to the master,
	// with the worker's compute time for the timeline.
	MsgDelta
	// MsgPong is the worker's liveness beat, sent on an interval by a
	// side goroutine so a long Deduce never looks like a dead process.
	MsgPong
	// MsgDone tells the worker the fixpoint is reached: reply with
	// MsgStats and exit.
	MsgDone
	// MsgStats is the worker's final chase.Stats, JSON-encoded (one-shot,
	// off the hot path).
	MsgStats
)

// ErrTruncated reports a stream or frame that ended mid-message.
var ErrTruncated = errors.New("wire: truncated message")

// ErrFrameTooBig reports a length prefix beyond MaxFrame.
var ErrFrameTooBig = errors.New("wire: frame exceeds size cap")

// Stats is the shared wire tally: bytes, frames, and codec time per
// direction, plus the dictionary economics (strings shipped once vs the
// bytes naive per-fact re-sending would have cost). All fields are
// atomics; one Stats is typically shared by every connection of a master.
type Stats struct {
	BytesOut, BytesIn   atomic.Int64
	FramesOut, FramesIn atomic.Int64
	EncodeNs, DecodeNs  atomic.Int64
	// DictStrings / DictBytes count dictionary-delta entries and their
	// payload bytes actually shipped. NaiveSymBytes counts what the same
	// traffic would have cost re-sending each fact's symbol string
	// inline (length prefix + bytes) — the ≥3× shrink wire_test.go
	// checks is NaiveSymBytes / (DictBytes + id bytes ≈ DictBytes +
	// FactsWithSyms).
	DictStrings, DictBytes atomic.Int64
	NaiveSymBytes          atomic.Int64
}

// Snapshot is a plain-struct copy of Stats for reports and JSON.
type Snapshot struct {
	BytesOut      int64 `json:"bytes_out"`
	BytesIn       int64 `json:"bytes_in"`
	FramesOut     int64 `json:"frames_out"`
	FramesIn      int64 `json:"frames_in"`
	EncodeNs      int64 `json:"encode_ns"`
	DecodeNs      int64 `json:"decode_ns"`
	DictStrings   int64 `json:"dict_strings"`
	DictBytes     int64 `json:"dict_bytes"`
	NaiveSymBytes int64 `json:"naive_sym_bytes"`
}

// Snapshot returns a coherent-enough point-in-time copy (fields are read
// individually; the master only reads it at quiescent points).
func (s *Stats) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	return Snapshot{
		BytesOut: s.BytesOut.Load(), BytesIn: s.BytesIn.Load(),
		FramesOut: s.FramesOut.Load(), FramesIn: s.FramesIn.Load(),
		EncodeNs: s.EncodeNs.Load(), DecodeNs: s.DecodeNs.Load(),
		DictStrings: s.DictStrings.Load(), DictBytes: s.DictBytes.Load(),
		NaiveSymBytes: s.NaiveSymBytes.Load(),
	}
}

// countingWriter tallies bytes written beneath the bufio layer, so
// BytesOut reflects what actually hits the socket.
type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	if cw.n != nil {
		cw.n.Add(int64(n))
	}
	return n, err
}

// countingReader tallies bytes read beneath the bufio layer.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if cr.n != nil {
		cr.n.Add(int64(n))
	}
	return n, err
}

// frameWriter assembles frames in a reused buffer and writes each as one
// length-prefixed unit through a bufio.Writer (one flush per message, so
// a superstep inbox is a single syscall in the common case).
type frameWriter struct {
	bw    *bufio.Writer
	buf   []byte // payload scratch, reused across frames
	stats *Stats
}

func newFrameWriter(w io.Writer, stats *Stats) *frameWriter {
	var cnt *atomic.Int64
	if stats != nil {
		cnt = &stats.BytesOut
	}
	return &frameWriter{bw: bufio.NewWriterSize(countingWriter{w, cnt}, 1<<16), stats: stats}
}

// begin resets the payload scratch and stamps the message type.
func (fw *frameWriter) begin(msg byte) {
	fw.buf = append(fw.buf[:0], msg)
}

// flush writes the assembled payload as one frame and flushes the
// underlying writer. The encode clock of the caller brackets build+flush.
func (fw *frameWriter) flush() error {
	if len(fw.buf) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooBig, len(fw.buf))
	}
	var pre [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(pre[:], uint64(len(fw.buf)))
	if _, err := fw.bw.Write(pre[:n]); err != nil {
		return err
	}
	if _, err := fw.bw.Write(fw.buf); err != nil {
		return err
	}
	if err := fw.bw.Flush(); err != nil {
		return err
	}
	if fw.stats != nil {
		fw.stats.FramesOut.Add(1)
	}
	return nil
}

func (fw *frameWriter) uvarint(x uint64) {
	fw.buf = binary.AppendUvarint(fw.buf, x)
}

func (fw *frameWriter) bytes(b []byte) {
	fw.buf = binary.AppendUvarint(fw.buf, uint64(len(b)))
	fw.buf = append(fw.buf, b...)
}

func (fw *frameWriter) str(s string) {
	fw.buf = binary.AppendUvarint(fw.buf, uint64(len(s)))
	fw.buf = append(fw.buf, s...)
}

// frameReader reads length-prefixed frames into a reused buffer.
type frameReader struct {
	br    *bufio.Reader
	buf   []byte
	stats *Stats
}

func newFrameReader(r io.Reader, stats *Stats) *frameReader {
	var cnt *atomic.Int64
	if stats != nil {
		cnt = &stats.BytesIn
	}
	return &frameReader{br: bufio.NewReaderSize(countingReader{r, cnt}, 1<<16), stats: stats}
}

// next reads one frame's payload. io.EOF is returned verbatim on a clean
// frame boundary; a stream ending inside a frame is ErrTruncated.
func (fr *frameReader) next() ([]byte, error) {
	ln, err := binary.ReadUvarint(fr.br)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF // clean boundary
		}
		return nil, fmt.Errorf("%w: frame length: %v", ErrTruncated, err)
	}
	if ln > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, ln)
	}
	if uint64(cap(fr.buf)) < ln {
		fr.buf = make([]byte, ln)
	}
	fr.buf = fr.buf[:ln]
	if _, err := io.ReadFull(fr.br, fr.buf); err != nil {
		return nil, fmt.Errorf("%w: frame body: %v", ErrTruncated, err)
	}
	if fr.stats != nil {
		fr.stats.FramesIn.Add(1)
	}
	return fr.buf, nil
}

// payload is a bounds-checked cursor over one frame's bytes; every read
// returns an error instead of panicking so malformed frames surface as
// decode errors (the fuzz targets hammer exactly this).
type payload struct {
	b   []byte
	off int
}

func (p *payload) uvarint() (uint64, error) {
	x, n := binary.Uvarint(p.b[p.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint at offset %d", ErrTruncated, p.off)
	}
	p.off += n
	return x, nil
}

// length reads a uvarint meant to count or size something inside this
// frame and rejects values that could not possibly fit in the remaining
// bytes, so corrupt counts fail fast instead of triggering huge loops.
func (p *payload) length() (int, error) {
	x, err := p.uvarint()
	if err != nil {
		return 0, err
	}
	if x > uint64(len(p.b)-p.off) {
		return 0, fmt.Errorf("%w: length %d exceeds %d remaining bytes", ErrTruncated, x, len(p.b)-p.off)
	}
	return int(x), nil
}

func (p *payload) bytes() ([]byte, error) {
	n, err := p.length()
	if err != nil {
		return nil, err
	}
	out := p.b[p.off : p.off+n]
	p.off += n
	return out, nil
}

func (p *payload) str() (string, error) {
	b, err := p.bytes()
	return string(b), err
}

func (p *payload) remaining() int { return len(p.b) - p.off }

func (p *payload) done() error {
	if p.off != len(p.b) {
		return fmt.Errorf("wire: %d trailing bytes in frame", len(p.b)-p.off)
	}
	return nil
}

// clock is the codec timer; split out so tests can observe stats without
// depending on wall-clock granularity.
func since(t0 time.Time) int64 { return int64(time.Since(t0)) }
