package transport

// FuzzReadFrame and FuzzReadHello pin the two readers every accepted
// connection runs before anything else: arbitrary bytes are rejected
// with an error — never a panic — and cost allocation linear in the
// bytes that arrived, however large a length they announce (at most
// MaxFrame is ever accepted). Frames and Hellos that the writers
// produce read back unchanged.

import (
	"bytes"
	"encoding/binary"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// frameAllocBound is the most reading n bytes of frames may allocate:
// the buffer doubles as bytes arrive, from at most one frameChunk ahead
// of them, and the constant absorbs runtime noise.
func frameAllocBound(n int) uint64 { return 4*uint64(n) + 4*frameChunk + 1<<20 }

func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, FrameRequest, []byte(`{"op":"check","seq":3}`)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame))        // announces MaxFrame, sends nothing
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame+1))      // one past the bound
	f.Add(append(binary.BigEndian.AppendUint32(nil, 1), 0x02)) // empty payload
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r := bytes.NewReader(data)
		total := 0
		for {
			typ, payload, n, err := ReadFrame(r)
			if err != nil {
				break
			}
			if n != 5+len(payload) || n > MaxFrame+4 {
				t.Fatalf("frame of type %d: %d payload bytes, %d on the wire", typ, len(payload), n)
			}
			total += n
		}
		runtime.ReadMemStats(&m1)
		if total > len(data) {
			t.Fatalf("read %d frame bytes from %d input bytes", total, len(data))
		}
		if alloc, bound := m1.TotalAlloc-m0.TotalAlloc, frameAllocBound(len(data)); alloc > bound {
			t.Fatalf("reading %d bytes allocated %d, bound %d", len(data), alloc, bound)
		}

		if len(data) == 0 {
			return
		}
		var w bytes.Buffer
		if _, err := WriteFrame(&w, data[0], data[1:]); err != nil {
			t.Fatalf("write: %v", err)
		}
		typ, payload, _, err := ReadFrame(&w)
		if err != nil || typ != data[0] || !bytes.Equal(payload, data[1:]) {
			t.Fatalf("round trip: type %d payload %q err %v, want type %d payload %q", typ, payload, err, data[0], data[1:])
		}
	})
}

// readHelloFrom runs ReadHello over an in-memory connection carrying
// data, then EOF.
func readHelloFrom(data []byte) (Hello, error) {
	client, server := net.Pipe()
	defer server.Close()
	go func() {
		_, _ = client.Write(data) // a short read on the other side is the test's business
		_ = client.Close()        // EOF after the data
	}()
	return ReadHello(server, 5*time.Second)
}

func FuzzReadHello(f *testing.F) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, FrameHello, []byte(`{"proto":3,"role":"data","instance":"i","seq":7,"src":2}`)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes(), "data", "i", uint64(7), 2)
	f.Add([]byte{0, 0, 0, 3, FrameHello, '{', '}'}, "control", "", uint64(0), 0)
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame), "", "x", uint64(1)<<63, -1)
	f.Fuzz(func(t *testing.T, data []byte, role, instance string, seq uint64, src int) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		h, err := readHelloFrom(data)
		runtime.ReadMemStats(&m1)
		if err == nil && h.Proto != ProtoVersion {
			t.Fatalf("accepted a hello of protocol version %d", h.Proto)
		}
		if alloc, bound := m1.TotalAlloc-m0.TotalAlloc, frameAllocBound(len(data))+16*uint64(len(data)); alloc > bound {
			t.Fatalf("reading a %d-byte hello allocated %d, bound %d", len(data), alloc, bound)
		}

		want := Hello{
			Proto:    ProtoVersion,
			Role:     strings.ToValidUTF8(role, "?"),
			Instance: strings.ToValidUTF8(instance, "?"),
			Seq:      seq,
			Src:      src,
		}
		client, server := net.Pipe()
		defer server.Close()
		errc := make(chan error, 1)
		go func() {
			errc <- WriteHello(client, want, 5*time.Second)
			_ = client.Close() // the hello is written; EOF after it
		}()
		got, err := ReadHello(server, 5*time.Second)
		if werr := <-errc; werr != nil {
			t.Fatalf("write hello: %v", werr)
		}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("hello round trip: got %+v (%v), want %+v", got, err, want)
		}
	})
}
