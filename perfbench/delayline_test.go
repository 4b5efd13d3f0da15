package main

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// linkPair dials a loopback listener through a delay dialer and returns the
// delayed client side and the plain server side.
func linkPair(t *testing.T, delay time.Duration) (*delayDialer, net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	d := newDelayDialer(delay)
	client, err := d.Dial("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted
	if server == nil {
		t.FailNow()
	}
	t.Cleanup(func() { d.Close(); server.Close() })
	return d, client, server
}

// TestDelayLineWriteDelay: a write made at time t arrives no earlier than
// t + delay, and k back-to-back writes arrive after about one delay, not k.
func TestDelayLineWriteDelay(t *testing.T) {
	const delay = 20 * time.Millisecond
	const k = 10
	_, client, server := linkPair(t, delay)
	t0 := time.Now()
	for i := 0; i < k; i++ {
		if _, err := client.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(t0); took > delay/2 {
		t.Fatalf("%d writes blocked the sender for %v", k, took)
	}
	buf := make([]byte, k)
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatal(err)
	}
	got := time.Since(t0)
	if got < delay {
		t.Fatalf("bytes arrived after %v, before the %v delay", got, delay)
	}
	if got > 3*delay {
		t.Fatalf("%d back-to-back writes took %v to arrive; want about one delay (%v)", k, got, delay)
	}
	for i, b := range buf {
		if b != byte(i) {
			t.Fatalf("byte %d = %d: order not kept", i, b)
		}
	}
}

// TestDelayLineReadDelay: bytes the peer sends are held back by the delay
// on the delayed side, which makes the delay apply in both directions.
func TestDelayLineReadDelay(t *testing.T) {
	const delay = 20 * time.Millisecond
	_, client, server := linkPair(t, delay)
	t0 := time.Now()
	if _, err := server.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(client, buf); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(t0); got < delay {
		t.Fatalf("read returned after %v, before the %v delay", got, delay)
	}
	if string(buf) != "ping" {
		t.Fatalf("read %q", buf)
	}

	if err := client.SetReadDeadline(time.Now().Add(5 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Read(buf); err == nil {
		t.Fatal("read past its deadline returned no error")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("deadline error %v is not a timeout", err)
	}
}

// TestDelayLineCloseDuringWrites: closing while writers and a reader are
// busy must not panic, writes after Close fail, and Close on the dialer
// returns only after the delay-line goroutines have exited.
func TestDelayLineCloseDuringWrites(t *testing.T) {
	d, client, _ := linkPair(t, time.Millisecond)
	var wg sync.WaitGroup
	var once sync.Once
	stop, writing := make(chan struct{}), make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := client.Write(make([]byte, 64)); err != nil {
					return
				}
				once.Do(func() { close(writing) })
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 64)
		for {
			if _, err := client.Read(buf); err != nil {
				return
			}
		}
	}()
	<-writing
	done := make(chan struct{})
	go func() { d.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("dialer Close did not return")
	}
	if _, err := client.Write([]byte{1}); err == nil {
		t.Fatal("write after Close succeeded")
	}
	close(stop)
	wg.Wait()
}
