package transport

// The TCP transport over real loopback sockets: exchanged deliveries
// match what was staged, stats count actual wire bytes, a dead peer
// surfaces as a bounded-time error (not a hang), and the handshake
// helpers route a Hello both ways.

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// tcpPair builds two connected transports over a real loopback socket.
func tcpPair(t *testing.T, timeout time.Duration) (a, b *TCP) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer func() { _ = ln.Close() }()
	type res struct {
		conn net.Conn
		err  error
	}
	accepted := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		accepted <- res{c, err}
	}()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	r := <-accepted
	if r.err != nil {
		t.Fatalf("accept: %v", r.err)
	}
	a = NewTCP(0, 1, map[int]net.Conn{1: dialed}, timeout)
	b = NewTCP(1, 1, map[int]net.Conn{0: r.conn}, timeout)
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	return a, b
}

func TestTCPExchangeRoundTrip(t *testing.T) {
	a, b := tcpPair(t, 5*time.Second)
	ctx := context.Background()
	var wg sync.WaitGroup
	var aDels, bDels []Delivery
	var aErr, bErr error
	a.Send(1, 42, Batch{{ID: 7, HasLabel: true, Label: "x"}})
	wg.Add(2)
	go func() { defer wg.Done(); aDels, aErr = a.Exchange(ctx, 1) }()
	go func() { defer wg.Done(); bDels, bErr = b.Exchange(ctx, 1) }()
	wg.Wait()
	if aErr != nil || bErr != nil {
		t.Fatalf("exchange: a=%v b=%v", aErr, bErr)
	}
	if len(aDels) != 0 {
		t.Fatalf("a received %+v, staged nothing for it", aDels)
	}
	if len(bDels) != 1 || bDels[0].Dst != 42 || bDels[0].Recs[0].ID != 7 || bDels[0].Recs[0].Label != "x" {
		t.Fatalf("b received %+v", bDels)
	}
	if st := a.Stats(); st.BytesOut == 0 || st.FramesOut != 1 || st.Rounds != 1 {
		t.Fatalf("a stats: %+v", st)
	}
	if err := a.Barrier(ctx, 1); err != nil {
		t.Fatalf("barrier: %v", err)
	}
}

// TestTCPPeerDeathBoundedError: the peer's sockets close mid-round;
// Exchange must fail within the round timeout and stay poisoned.
func TestTCPPeerDeathBoundedError(t *testing.T) {
	a, b := tcpPair(t, 10*time.Second)
	_ = b.Close()
	start := time.Now()
	_, err := a.Exchange(context.Background(), 1)
	if err == nil {
		t.Fatal("exchange against a dead peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("error took %v, want bounded well under the timeout", elapsed)
	}
	if _, err := a.Exchange(context.Background(), 2); err == nil {
		t.Fatal("poisoned transport accepted another round")
	}
}

// TestTCPContextCancelInterruptsRound: neither side of the pair is
// answering; cancelling the context must yank the blocked read.
func TestTCPContextCancelInterruptsRound(t *testing.T) {
	a, _ := tcpPair(t, time.Hour) // timeout alone must not be the bound
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.Exchange(ctx, 1)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled exchange succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Exchange ignored cancellation")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer func() { _ = ln.Close() }()
	got := make(chan Hello, 1)
	errc := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		defer func() { _ = c.Close() }()
		h, err := ReadHello(c, 5*time.Second)
		if err != nil {
			errc <- err
			return
		}
		got <- h
	}()
	conn, err := DialData(context.Background(), ln.Addr().String(),
		Hello{Instance: "i1", Seq: 4, Src: 2}, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() { _ = conn.Close() }()
	select {
	case h := <-got:
		want := Hello{Proto: ProtoVersion, Role: RoleData, Instance: "i1", Seq: 4, Src: 2}
		if h != want {
			t.Fatalf("hello round-trip: got %+v want %+v", h, want)
		}
	case err := <-errc:
		t.Fatalf("accept side: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("hello never arrived")
	}
}

// TestReadHelloRejectsOtherVersion: a hello of another protocol version
// fails the handshake with an error naming both versions, so a
// mixed-version fleet says which side to rebuild.
func TestReadHelloRejectsOtherVersion(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		_ = WriteHello(a, Hello{Proto: 1, Role: RoleControl}, 5*time.Second) // the read side reports
	}()
	_, err := ReadHello(b, 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), fmt.Sprintf("version %d", ProtoVersion)) {
		t.Fatalf("v1 hello: err = %v, want an error naming versions 1 and %d", err, ProtoVersion)
	}
}
