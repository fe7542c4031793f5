package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sdimm/internal/serve"
)

// The generator speaks the wire protocol directly (Request.Encode,
// WriteFrame, ReadFrame, Decode) rather than through serve.Client: the
// client paces callers to the server's credit window, so open-loop load
// pushed through it queues in the client and measures that queue instead
// of the server. The server treats credit as advisory, so a raw-wire sender
// stands in fairly for many independent users sharing the connections.

// genConns is the number of connections the generator opens.
const genConns = 2

// dialRaw opens one connection and performs the hello handshake.
func dialRaw(addr, tenant string) (net.Conn, int, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, 0, err
	}
	hello, err := serve.Hello{Tenant: tenant}.Encode()
	if err == nil {
		err = serve.WriteFrame(conn, hello)
	}
	var payload []byte
	if err == nil {
		payload, err = serve.ReadFrame(conn)
	}
	var msg any
	if err == nil {
		msg, err = serve.Decode(payload)
	}
	if err != nil {
		conn.Close()
		return nil, 0, fmt.Errorf("handshake: %w", err)
	}
	ack, ok := msg.(serve.HelloAck)
	if !ok {
		conn.Close()
		return nil, 0, fmt.Errorf("handshake: got %T", msg)
	}
	return conn, int(ack.BlockSize), nil
}

// openLoop offers ops to the server at addr on their schedule and records
// every outcome. One sender goroutine writes each request when it is due,
// whether or not earlier ones have been answered; one reader per
// connection timestamps responses. It returns once every request is
// answered or the drain timeout after the last send lapses.
func openLoop(addr string, ops []op, blockSize int, deadline time.Duration) ([]outcome, error) {
	out := make([]outcome, len(ops))
	for i := range out {
		out[i].recv = -1
		out[i].sent = -1
	}
	conns := make([]net.Conn, genConns)
	for i := range conns {
		c, bs, err := dialRaw(addr, fmt.Sprintf("perfbench-%d", i))
		if err != nil {
			for _, c := range conns[:i] {
				c.Close()
			}
			return nil, err
		}
		if bs != blockSize {
			c.Close()
			return nil, fmt.Errorf("server block size %d, want %d", bs, blockSize)
		}
		conns[i] = c
	}

	start := time.Now()
	now := func() int64 { return int64(time.Since(start)) }
	var (
		pending  atomic.Int64
		allDone  = make(chan struct{})
		readErrs = make([]error, genConns)
		readers  sync.WaitGroup
	)
	pending.Store(int64(len(ops)))
	if len(ops) == 0 {
		close(allDone)
	}
	for ci, c := range conns {
		readers.Add(1)
		go func() {
			defer readers.Done()
			readErrs[ci] = readResponses(c, ops, out, now, &pending, allDone)
		}()
	}

	writers := make([]*bufio.Writer, genConns)
	for i, c := range conns {
		writers[i] = bufio.NewWriterSize(c, 64<<10)
	}
	sendErr := func() error {
		defer lockSender()()
		for i := 0; i < len(ops); {
			if wait := ops[i].at - time.Duration(now()); wait > 0 {
				preciseSleep(wait)
			}
			// Send every op that is due now in one burst per connection.
			t := now()
			j := i
			for ; j < len(ops) && int64(ops[j].at) <= t; j++ {
				o := ops[j]
				req := serve.Request{ID: uint64(j), Addr: o.addr, Write: o.write, DeadlineMS: uint32(deadline / time.Millisecond)}
				if o.write {
					req.Data = encodePayload(blockSize, o.addr, uint64(j)+1)
				}
				b, err := req.Encode()
				if err != nil {
					return err
				}
				out[j].sent = t
				if err := serve.WriteFrame(writers[j%genConns], b); err != nil {
					return err
				}
			}
			for _, w := range writers {
				if err := w.Flush(); err != nil {
					return err
				}
			}
			i = j
		}
		return nil
	}()

	// Drain: every accepted request finishes within its deadline, so a
	// second past it bounds a healthy server.
	select {
	case <-allDone:
	case <-time.After(deadline + time.Second):
	}
	for _, c := range conns {
		c.Close()
	}
	readers.Wait()
	if sendErr != nil {
		return out, fmt.Errorf("send: %w", sendErr)
	}
	if pending.Load() == 0 {
		return out, nil
	}
	for _, err := range readErrs {
		if err != nil && !errors.Is(err, net.ErrClosed) {
			return out, fmt.Errorf("receive: %w", err)
		}
	}
	return out, nil
}

// readResponses records responses on one connection until it closes.
func readResponses(c net.Conn, ops []op, out []outcome, now func() int64, pending *atomic.Int64, allDone chan struct{}) error {
	r := bufio.NewReaderSize(c, 64<<10)
	for {
		payload, err := serve.ReadFrame(r)
		if err != nil {
			return err
		}
		t := now()
		msg, err := serve.Decode(payload)
		if err != nil {
			return err
		}
		resp, ok := msg.(serve.Response)
		if !ok || resp.ID >= uint64(len(ops)) || out[resp.ID].recv >= 0 {
			return fmt.Errorf("unexpected message %T id %d", msg, resp.ID)
		}
		o := &out[resp.ID]
		o.recv = t
		o.status = resp.Status
		if !ops[resp.ID].write && resp.Status == serve.StatusOK {
			o.gotAddr, o.gotSeq, o.gotValid = decodePayload(resp.Data)
		}
		if pending.Add(-1) == 0 {
			close(allDone)
		}
	}
}
