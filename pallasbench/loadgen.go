package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// outcome is one open-loop request as the generator saw it.
type outcome struct {
	lat  time.Duration // from the due time to the end of the response
	rtt  time.Duration // from the send to the end of the response
	late time.Duration // how late the generator sent it
	// start and end are offsets from the schedule's start, for spans.
	start, end time.Duration
	err        error
}

// openLoop issues len(due) requests on an open-loop schedule: request i is
// due at start+due[i] whether or not earlier ones have finished. senders
// goroutines take arrivals in order; one that falls behind sends late, and
// the request's latency still counts from its due time, so a stall shows up
// in every request queued behind it. prepare(i) runs before request i is
// due and returns the call that sends it.
func openLoop(due []time.Duration, senders int, prepare func(i int) func() error) []outcome {
	out := make([]outcome, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				send := prepare(i)
				sleepUntil(start.Add(due[i]))
				sent := time.Since(start)
				err := send()
				done := time.Since(start)
				out[i] = outcome{lat: done - due[i], rtt: done - sent, late: sent - due[i],
					start: sent, end: done, err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// sleepUntil blocks until t in the kernel. time.Sleep wakes through the
// runtime's network poller, which rounds short waits up to a whole
// millisecond; on an idle process that would add up to 1 ms of generator
// lateness to every request, more than a cache hit costs.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
	}
}

// newClient returns an HTTP client that opens at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// post sends one JSON body and reads the whole response.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("read response: %w", err)
	}
	return resp.StatusCode, b, nil
}
