package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout bounds one POST so a wedged server fails the run
// instead of hanging it.
const requestTimeout = 10 * time.Second

// conn is one keep-alive HTTP/1.1 connection that sends pre-serialised
// requests. It is deliberately not net/http: the generator shares the
// sandbox's cores with the server under test, so a request costs it
// one write and one buffered read and nothing else.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 4096)}, nil
}

func (c *conn) close() { _ = c.c.Close() }

// ack is the server's answer to one POST.
type ack struct {
	status   int
	accepted int
	rejected int
}

// ok reports whether every event of the request was accepted.
func (a ack) ok() bool { return a.status/100 == 2 && a.rejected == 0 }

// post writes one pre-serialised request and reads its response.
func (c *conn) post(wire []byte) (ack, error) {
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return ack{}, err
	}
	if _, err := c.c.Write(wire); err != nil {
		return ack{}, fmt.Errorf("write request: %w", err)
	}
	return c.readAck()
}

var errChunked = errors.New("response without Content-Length")

// readAck parses a status line, the headers and a Content-Length body.
func (c *conn) readAck() (ack, error) {
	var a ack
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return a, fmt.Errorf("read status line: %w", err)
	}
	// "HTTP/1.1 202 Accepted"
	if len(line) < 12 {
		return a, fmt.Errorf("short status line %q", line)
	}
	a.status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return a, fmt.Errorf("bad status line %q", line)
	}
	length := -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return a, fmt.Errorf("read header: %w", err)
		}
		if len(line) <= 2 {
			break
		}
		if v, found := headerValue(line, "content-length:"); found {
			length, err = strconv.Atoi(v)
			if err != nil {
				return a, fmt.Errorf("bad Content-Length %q", v)
			}
		}
	}
	if length < 0 {
		return a, errChunked
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return a, fmt.Errorf("read body: %w", err)
	}
	a.accepted = jsonInt(c.body, `"accepted":`)
	a.rejected = jsonInt(c.body, `"rejected":`)
	return a, nil
}

// headerValue matches a header line against a lower-case "name:" and
// returns its trimmed value.
func headerValue(line []byte, name string) (string, bool) {
	if len(line) < len(name) || !bytes.EqualFold(line[:len(name)], []byte(name)) {
		return "", false
	}
	return string(bytes.TrimSpace(line[len(name):])), true
}

// jsonInt extracts the integer after key in a flat JSON object; 0 when
// the key is absent.
func jsonInt(body []byte, key string) int {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0
	}
	n := 0
	for _, ch := range body[i+len(key):] {
		if ch < '0' || ch > '9' {
			break
		}
		n = n*10 + int(ch-'0')
	}
	return n
}

// phaseResult is what one load phase measured. The per-request slices
// are in pool order: entry k belongs to reqs[k].
type phaseResult struct {
	attempted int // requests sent, in pool order: reqs[:attempted]
	hardFail  int // transport errors, non-2xx answers, answers with rejected events
	slowAcks  int // 2xx acks slower than the workload's ack limit
	accepted  int // events the server acknowledged
	elapsed   time.Duration
	latency   []time.Duration // open loop: from the due instant; closed loop: from the send
	// Open loop only. behind is send instant − due instant: it grows when
	// the server stalls every connection. overslept is the part of it the
	// generator itself caused: send instant − max(due, connection free).
	behind    []time.Duration
	overslept []time.Duration
	firstErr  error
}

// tally is one connection's share of a phase's counters.
type tally struct {
	hardFail, slowAcks, accepted int
	err                          error
}

func (t *tally) record(a ack, err error, lat, limit time.Duration) {
	switch {
	case err != nil:
		t.hardFail++
		if t.err == nil {
			t.err = err
		}
	case !a.ok():
		t.hardFail++
		if t.err == nil {
			t.err = fmt.Errorf("status %d accepted %d rejected %d", a.status, a.accepted, a.rejected)
		}
	default:
		t.accepted += a.accepted
		if limit > 0 && lat > limit {
			t.slowAcks++
		}
	}
}

func (res *phaseResult) fold(ts []tally) {
	for _, t := range ts {
		res.hardFail += t.hardFail
		res.slowAcks += t.slowAcks
		res.accepted += t.accepted
		if res.firstErr == nil {
			res.firstErr = t.err
		}
	}
}

// redial replaces a connection a transport error has poisoned.
func redial(c **conn, addr string) {
	(*c).close()
	if nc, err := dial(addr); err == nil {
		*c = nc
	}
}

// closedLoop sends every request of reqs, back to back on every
// connection: each connection's next request leaves only after its
// previous one was answered — the HTTPSink / forwarder caller shape. The
// work is fixed and the time is what is measured: the phase's rate is
// accepted ÷ elapsed, and the server holds the same events at the end of
// every run. limit only keeps a wedged server from hanging the run: a
// phase still sending when it expires stops there (attempted < len(reqs)).
// Requests are taken in pool order, so reqs[:attempted] is exactly what
// was sent.
func closedLoop(addr string, conns []*conn, reqs []request, limit, ackLimit time.Duration) phaseResult {
	var next atomic.Int64
	ts := make([]tally, len(conns))
	latency := make([]time.Duration, len(reqs)) // entry k is written by the one goroutine that drew k
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(limit)
	for i := range conns {
		wg.Add(1)
		go func(t *tally, c **conn) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1)) - 1
				if k >= len(reqs) {
					return
				}
				t0 := time.Now()
				a, err := (*c).post(reqs[k].wire)
				latency[k] = time.Since(t0)
				t.record(a, err, latency[k], ackLimit)
				if err != nil {
					redial(c, addr)
				}
			}
		}(&ts[i], &conns[i])
	}
	wg.Wait()
	res := phaseResult{elapsed: time.Since(start), attempted: min(int(next.Load()), len(reqs))}
	res.latency = latency[:res.attempted]
	res.fold(ts)
	return res
}

// openLoop sends reqs on a fixed schedule: request k is due at
// start + k/rate whatever the server does. Latency is timed from the
// due instant, so a stall is charged to every request it delays.
func openLoop(addr string, conns []*conn, reqs []request, rate float64, ackLimit time.Duration) phaseResult {
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	ts := make([]tally, len(conns))
	res := phaseResult{
		attempted: len(reqs),
		latency:   make([]time.Duration, len(reqs)), // entry k is written by the one goroutine that drew k
		behind:    make([]time.Duration, len(reqs)),
		overslept: make([]time.Duration, len(reqs)),
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range conns {
		wg.Add(1)
		go func(t *tally, c **conn) {
			defer wg.Done()
			free := start
			for {
				k := int(next.Add(1)) - 1
				if k >= len(reqs) {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				res.behind[k] = sent.Sub(due)
				if free.After(due) {
					res.overslept[k] = sent.Sub(free)
				} else {
					res.overslept[k] = sent.Sub(due)
				}
				a, err := (*c).post(reqs[k].wire)
				free = time.Now()
				res.latency[k] = free.Sub(due)
				t.record(a, err, res.latency[k], ackLimit)
				if err != nil {
					redial(c, addr)
				}
			}
		}(&ts[i], &conns[i])
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.fold(ts)
	return res
}

// backlogGrew reports whether an open-loop phase fell progressively
// behind its schedule: the median of behind over the last quarter of
// the schedule is more than twice that of the first quarter and more
// than one send interval. A phase like that measured a queue, not the
// server, and its latencies are not to be trusted.
func backlogGrew(behind []time.Duration, interval time.Duration) bool {
	q := len(behind) / 4
	if q == 0 {
		return false
	}
	first, last := median(durationsMS(behind[:q])), median(durationsMS(behind[len(behind)-q:]))
	return last > 2*first && last > ms(interval)
}

// dialAll opens n connections to addr.
func dialAll(addr string, n int) ([]*conn, error) {
	conns := make([]*conn, 0, n)
	for i := 0; i < n; i++ {
		c, err := dial(addr)
		if err != nil {
			closeAll(conns)
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

func closeAll(conns []*conn) {
	for _, c := range conns {
		c.close()
	}
}
