package main

import (
	"net"
	"os"
	"sync"
	"time"
)

// delayDialer emulates a WAN link through transport.Options.Dial: every
// connection it returns delays each direction by a fixed one-way delay.
// The delay is a line, not a sleep in the caller: a write returns at once
// and its bytes leave delay later, so k back-to-back writes all arrive about
// one delay after they were made, exactly as on a long link with ample
// bandwidth.
type delayDialer struct {
	delay time.Duration

	mu    sync.Mutex
	conns []*delayConn
}

func newDelayDialer(delay time.Duration) *delayDialer { return &delayDialer{delay: delay} }

// Dial has the signature of transport.Options.Dial.
func (d *delayDialer) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	dc := newDelayConn(c, d.delay)
	d.mu.Lock()
	d.conns = append(d.conns, dc)
	d.mu.Unlock()
	return dc, nil
}

// Close closes every connection the dialer made and waits until their
// delay-line goroutines have exited.
func (d *delayDialer) Close() {
	d.mu.Lock()
	conns := d.conns
	d.conns = nil
	d.mu.Unlock()
	for _, c := range conns {
		c.Close()
		c.wait()
	}
}

// chunk is a run of bytes that becomes deliverable at due.
type chunk struct {
	due  time.Time
	data []byte
}

// delayConn wraps a connection in two delay lines. Outbound chunks queue
// for a writer goroutine that forwards each one at its due time; a reader
// goroutine stamps inbound bytes on arrival and Read releases them at
// arrival+delay.
//
// Close is safe against concurrent Write and Read: queues are guarded by a
// mutex and a closed flag rather than closed channels, so a write racing
// teardown returns net.ErrClosed instead of panicking. Close stops both
// goroutines; wait blocks until they have exited.
type delayConn struct {
	net.Conn
	delay time.Duration

	mu        sync.Mutex
	out, in   []chunk
	readErr   error // terminal error of the inbound side, after queued data
	closed    bool
	rdeadline time.Time

	outReady chan struct{} // 1-buffered wake-up for the writer goroutine
	inReady  chan struct{} // 1-buffered wake-up for Read
	done     chan struct{}
	once     sync.Once
	wg       sync.WaitGroup
}

func newDelayConn(c net.Conn, delay time.Duration) *delayConn {
	dc := &delayConn{
		Conn:     c,
		delay:    delay,
		outReady: make(chan struct{}, 1),
		inReady:  make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	dc.wg.Add(2)
	go dc.writeLoop()
	go dc.readLoop()
	return dc
}

func wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// Write queues p for delivery after the delay and never blocks on the link.
func (c *delayConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	c.out = append(c.out, chunk{due: time.Now().Add(c.delay), data: append([]byte(nil), p...)})
	c.mu.Unlock()
	wake(c.outReady)
	return len(p), nil
}

func (c *delayConn) writeLoop() {
	defer c.wg.Done()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		c.mu.Lock()
		if len(c.out) == 0 {
			c.mu.Unlock()
			select {
			case <-c.outReady:
				continue
			case <-c.done:
				return
			}
		}
		next := c.out[0]
		c.mu.Unlock()
		if wait := time.Until(next.due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-c.done:
				return
			}
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		c.out = c.out[1:]
		c.mu.Unlock()
		if _, err := c.Conn.Write(next.data); err != nil {
			c.Close()
			return
		}
	}
}

func (c *delayConn) readLoop() {
	defer c.wg.Done()
	for {
		buf := make([]byte, 32<<10)
		n, err := c.Conn.Read(buf)
		c.mu.Lock()
		if n > 0 {
			c.in = append(c.in, chunk{due: time.Now().Add(c.delay), data: buf[:n]})
		}
		if err != nil {
			c.readErr = err
		}
		c.mu.Unlock()
		wake(c.inReady)
		if err != nil {
			return
		}
	}
}

// Read returns delayed inbound bytes, honoring the read deadline.
func (c *delayConn) Read(p []byte) (int, error) {
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return 0, net.ErrClosed
		}
		now := time.Now()
		if !c.rdeadline.IsZero() && !now.Before(c.rdeadline) {
			c.mu.Unlock()
			return 0, os.ErrDeadlineExceeded
		}
		wait := time.Hour
		if len(c.in) > 0 {
			head := &c.in[0]
			if !now.Before(head.due) {
				n := copy(p, head.data)
				head.data = head.data[n:]
				if len(head.data) == 0 {
					c.in = c.in[1:]
				}
				c.mu.Unlock()
				return n, nil
			}
			wait = head.due.Sub(now)
		} else if c.readErr != nil {
			err := c.readErr
			c.mu.Unlock()
			return 0, err
		}
		if !c.rdeadline.IsZero() {
			wait = min(wait, c.rdeadline.Sub(now))
		}
		c.mu.Unlock()
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-c.inReady:
			if !timer.Stop() {
				<-timer.C
			}
		case <-c.done:
			timer.Stop()
			return 0, net.ErrClosed
		}
	}
}

func (c *delayConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdeadline = t
	c.mu.Unlock()
	wake(c.inReady)
	return nil
}

func (c *delayConn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.Conn.SetWriteDeadline(t)
}

// Close drops undelivered bytes, closes the connection and signals both
// delay-line goroutines to exit. Safe to call more than once and from the
// writer goroutine itself.
func (c *delayConn) Close() error {
	var err error
	c.once.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.out, c.in = nil, nil
		c.mu.Unlock()
		close(c.done)
		err = c.Conn.Close()
	})
	return err
}

// wait blocks until both goroutines have exited (after Close).
func (c *delayConn) wait() { c.wg.Wait() }
