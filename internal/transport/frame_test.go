package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"
)

type testFrame struct {
	from    int
	kind    string
	payload []byte
}

func encodeFrames(frames []testFrame) (stream []byte, ends []int) {
	for _, f := range frames {
		stream = appendFrame(stream, f.from, f.kind, f.payload)
		ends = append(ends, len(stream))
	}
	return stream, ends
}

// readOne takes the next frame out of fr, reading from src into the
// space fr offers while the frame is incomplete — the endpoint's read
// loop over an io.Reader. A stream that ends reads as fr.eof().
func readOne(fr *frameReader, src io.Reader, size, maxFrame int) (testFrame, error) {
	for {
		from, kind, payload, ok, err := fr.next(size, maxFrame)
		if err != nil {
			return testFrame{from: from}, err
		}
		if ok {
			return testFrame{from, kind, payload}, nil
		}
		n, err := src.Read(fr.space())
		fr.fill(n)
		if n == 0 && err != nil {
			if err == io.EOF {
				err = fr.eof()
			}
			return testFrame{from: -1}, err
		}
	}
}

// readAll parses frames out of r until the stream ends or a frame is
// rejected.
func readAll(r io.Reader, size, maxFrame int) ([]testFrame, error) {
	fr := newFrameReader()
	var got []testFrame
	for {
		f, err := readOne(fr, r, size, maxFrame)
		if err != nil {
			return got, err
		}
		got = append(got, f)
	}
}

func checkFrames(t *testing.T, got, want []testFrame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("parsed %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].from != want[i].from || got[i].kind != want[i].kind || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("frame %d: got (%d, %q, %d bytes), want (%d, %q, %d bytes)", i,
				got[i].from, got[i].kind, len(got[i].payload), want[i].from, want[i].kind, len(want[i].payload))
		}
	}
}

// sampleFrames covers the shapes the parser distinguishes: empty kind,
// empty payload, a repeated (interned) kind, and a kind beyond the
// interning length cap.
func sampleFrames() []testFrame {
	return []testFrame{
		{0, "rpc.req", []byte("hello")},
		{1, "", []byte{1}},
		{1, "hb", nil},
		{0, "rpc.req", []byte("again")},
		{2, strings.Repeat("k", maxInternLen+3), []byte("long kind")},
	}
}

// TestReadFrameCutAtEveryByte feeds the parser every prefix of a
// stream, whole and one byte per Read: the frames that fit arrive
// intact, and the stream's end reads as io.EOF exactly on a frame
// boundary and as io.ErrUnexpectedEOF inside a frame.
func TestReadFrameCutAtEveryByte(t *testing.T) {
	frames := sampleFrames()
	stream, ends := encodeFrames(frames)
	for cut := 0; cut <= len(stream); cut++ {
		whole, wantErr := 0, io.EOF
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		if cut != 0 && (whole == 0 || ends[whole-1] != cut) {
			wantErr = io.ErrUnexpectedEOF
		}
		for name, r := range map[string]io.Reader{
			"whole":  bytes.NewReader(stream[:cut]),
			"1-byte": iotest.OneByteReader(bytes.NewReader(stream[:cut])),
		} {
			got, err := readAll(r, 3, 1<<20)
			if err != wantErr {
				t.Fatalf("cut %d (%s): error %v, want %v", cut, name, err, wantErr)
			}
			checkFrames(t, got, frames[:whole])
		}
	}
}

// TestReadFrameRejects: validation failures wrap errCorruptFrame, name
// the sender once its rank has been validated, and are raised from the
// prefix alone — before the bytes it announces are read or allocated.
func TestReadFrameRejects(t *testing.T) {
	const size, maxFrame = 4, 1 << 10
	u32 := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.BigEndian.AppendUint32(b, v)
		}
		return b
	}
	for _, c := range []struct {
		name     string
		stream   []byte
		wantFrom int
	}{
		{"rank out of range", u32(size), -1},
		{"rank far out of range", u32(0xFFFFFFFF), -1},
		{"kind length beyond MaxFrame", u32(1, maxFrame+1), 1},
		{"kind length 4 GiB", u32(2, 0xFFFFFFF0), 2},
		{"payload length beyond MaxFrame", append(append(u32(3, 1), 'k'), u32(maxFrame+1)...), 3},
		{"payload length 4 GiB", append(append(u32(3, 1), 'k'), u32(0xFFFFFFF0)...), 3},
	} {
		f, err := readOne(newFrameReader(), bytes.NewReader(c.stream), size, maxFrame)
		if !errors.Is(err, errCorruptFrame) {
			t.Errorf("%s: error %v, want a corrupt-frame error", c.name, err)
		}
		if f.from != c.wantFrom {
			t.Errorf("%s: from = %d, want %d", c.name, f.from, c.wantFrom)
		}
	}
	// Lengths exactly at the limit pass.
	ok := testFrame{3, strings.Repeat("k", maxFrame), make([]byte, maxFrame)}
	stream, _ := encodeFrames([]testFrame{ok})
	got, err := readAll(bytes.NewReader(stream), size, maxFrame)
	if err != io.EOF {
		t.Fatalf("frame at the limit: %v", err)
	}
	checkFrames(t, got, []testFrame{ok})
}

// readSizes records the length of the slice each Read was offered.
type readSizes struct {
	r     io.Reader
	sizes []int
}

func (r *readSizes) Read(p []byte) (int, error) {
	r.sizes = append(r.sizes, len(p))
	return r.r.Read(p)
}

// TestReadFrameLargePayload: a payload larger than the read buffer
// arrives intact — between small frames, so it starts mid-buffer — and
// its bulk is read straight into the payload slice, not through the
// buffer.
func TestReadFrameLargePayload(t *testing.T) {
	big := make([]byte, 3*readBufSize+17)
	rand.New(rand.NewSource(1)).Read(big)
	frames := []testFrame{{0, "a", []byte("x")}, {1, "big", big}, {0, "a", []byte("y")}}
	stream, _ := encodeFrames(frames)
	rs := &readSizes{r: bytes.NewReader(stream)}
	got, err := readAll(rs, 2, 1<<20)
	if err != io.EOF {
		t.Fatal(err)
	}
	checkFrames(t, got, frames)
	direct := false
	for _, n := range rs.sizes {
		direct = direct || n > readBufSize
	}
	if !direct {
		t.Errorf("no Read was offered more than the %d-byte buffer (sizes %v): the payload was copied through it", readBufSize, rs.sizes)
	}
}

// TestReadFrameInterning: repeated kinds come out of the table (a
// steady-state frame allocates its payload and nothing else), and kinds
// beyond the table's caps are still delivered.
func TestReadFrameInterning(t *testing.T) {
	var frames []testFrame
	for i := 0; i < maxInternKinds+5; i++ {
		frames = append(frames, testFrame{0, fmt.Sprintf("kind-%d", i), []byte{byte(i)}})
	}
	frames = append(frames, frames...) // every kind twice
	stream, _ := encodeFrames(frames)
	src := bytes.NewReader(stream)
	fr := newFrameReader()
	for i, want := range frames {
		got, err := readOne(fr, src, 1, 1<<10)
		if err != nil || got.kind != want.kind {
			t.Fatalf("frame %d: kind %q, error %v, want %q", i, got.kind, err, want.kind)
		}
	}
	if len(fr.kinds) != maxInternKinds {
		t.Fatalf("table holds %d kinds, want the cap %d", len(fr.kinds), maxInternKinds)
	}

	one, _ := encodeFrames([]testFrame{{0, "rpc.req", []byte("payload")}})
	stream = bytes.Repeat(one, 200)
	src = bytes.NewReader(stream)
	fr = newFrameReader()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := readOne(fr, src, 1, 1<<10); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("steady-state frame costs %.0f allocations, want 1 (the payload)", allocs)
	}
}

// TestTCPReadsPerSegment is the regression guard for
// five-reads-per-frame: 1000 small frames written in one segment arrive
// in order, and the reader issues a number of read(2) calls bounded by
// the segment's size over the buffer's, not by the frame count.
func TestTCPReadsPerSegment(t *testing.T) {
	a, _, _ := newTCPPair(t, fastConfig())
	reg := bindRegistry(a)
	const n = 1000
	var mu sync.Mutex
	var got []string
	done := make(chan struct{})
	a.SetHandler(func(m Message) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, string(m.Payload))
		if len(got) == n {
			close(done)
		}
	})
	failed := make(chan struct{}, 1)
	a.SetFailureHandler(func(int, error) {
		select {
		case failed <- struct{}{}:
		default:
		}
	})

	var stream []byte
	for i := 0; i < n; i++ {
		stream = appendFrame(stream, 1, "seq", []byte(fmt.Sprintf("%04d", i)))
	}
	c, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(stream); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the frames")
	}
	c.Close()
	select { // the reader has seen the close
	case <-failed:
	case <-time.After(5 * time.Second):
		t.Fatal("the close was not reported")
	}

	for i, p := range got {
		if p != fmt.Sprintf("%04d", i) {
			t.Fatalf("frame %d carries %q", i, p)
		}
	}
	// One read per buffer-full of the segment, plus the one that learns
	// of the close and one that may find the socket empty at the start.
	if reads, max := reg.CounterValue(MetricReads), uint64(len(stream)/readBufSize+3); reads > max {
		t.Errorf("%d read(2) calls for %d frames in one %d-byte segment, want at most %d", reads, n, len(stream), max)
	}
	if recv := reg.CounterValue(MetricMsgsReceived); recv != n {
		t.Errorf("receiver counted %d messages, want %d", recv, n)
	}
}

// TestTCPCorruptFrameBehindValidOnes: a corrupt frame sharing a segment
// with valid ones costs exactly itself — the frames before it are
// delivered, it is counted, the connection is dropped and the failure
// names the sender.
func TestTCPCorruptFrameBehindValidOnes(t *testing.T) {
	a, _, _ := newTCPPair(t, fastConfig())
	reg := bindRegistry(a)
	var delivered atomic.Int64
	a.SetHandler(func(Message) { delivered.Add(1) })
	failed := make(chan int, 1)
	a.SetFailureHandler(func(peer int, err error) { failed <- peer })

	stream := appendFrame(nil, 1, "ok", []byte("1"))
	stream = appendFrame(stream, 1, "ok", []byte("2"))
	stream = appendFrame(stream, 7, "bad rank", nil)
	c, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(stream); err != nil {
		t.Fatal(err)
	}
	select {
	case peer := <-failed:
		if peer != 1 {
			t.Errorf("failure names rank %d, want 1", peer)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no failure notification for the corrupt frame")
	}
	if d, dropped := delivered.Load(), reg.CounterValue(MetricDroppedFrames); d != 2 || dropped != 1 {
		t.Errorf("delivered %d frames and dropped %d, want 2 and 1", d, dropped)
	}
}

// FuzzReadFrame: whatever the bytes and however they are cut into
// Reads, the parser neither panics nor over-allocates, every frame it
// returns is within the limits, and the frames re-encode to exactly the
// bytes consumed.
func FuzzReadFrame(f *testing.F) {
	stream, ends := encodeFrames(sampleFrames())
	f.Add(stream, uint8(3), uint8(0))
	f.Add(stream, uint8(2), uint8(1)) // the last frame's rank is out of range
	for _, end := range ends {
		f.Add(stream[:end-1], uint8(3), uint8(5))
	}
	f.Add(appendFrame(nil, 1, "k", nil)[:8], uint8(2), uint8(0))
	f.Add([]byte{0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xF0}, uint8(2), uint8(0))                  // kind length 4 GiB
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 'k', 0xFF, 0xFF, 0xFF, 0xF0}, uint8(2), uint8(3)) // payload length 4 GiB
	f.Add([]byte{0, 0, 0, 99}, uint8(2), uint8(0))

	const maxFrame = 1 << 12
	f.Fuzz(func(t *testing.T, data []byte, size, chunk uint8) {
		var r io.Reader = bytes.NewReader(data)
		if chunk > 0 {
			r = &chunkReader{r: r, n: int(chunk)}
		}
		got, err := readAll(r, int(size), maxFrame)
		var consumed []byte
		for _, fr := range got {
			if fr.from < 0 || fr.from >= int(size) || len(fr.kind) > maxFrame || len(fr.payload) > maxFrame {
				t.Fatalf("frame outside the limits: from %d, kind %d bytes, payload %d bytes", fr.from, len(fr.kind), len(fr.payload))
			}
			consumed = appendFrame(consumed, fr.from, fr.kind, fr.payload)
		}
		if !bytes.HasPrefix(data, consumed) {
			t.Fatal("returned frames do not re-encode to a prefix of the input")
		}
		switch {
		case errors.Is(err, errCorruptFrame), err == io.ErrUnexpectedEOF:
		case err == io.EOF:
			if len(consumed) != len(data) {
				t.Fatalf("clean EOF after %d of %d bytes", len(consumed), len(data))
			}
		default:
			t.Fatalf("unexpected error %v", err)
		}
	})
}

// chunkReader hands out at most n bytes per Read.
type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}
