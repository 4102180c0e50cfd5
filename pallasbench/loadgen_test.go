package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDueTime stalls the first request: the next one is
// due while the only sender is busy, so it goes out late and its latency
// counts the wait.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	outs := openLoop(due, 1, func(i int) func() error {
		return func() error {
			if i == 0 {
				time.Sleep(30 * time.Millisecond)
			}
			return nil
		}
	})
	if outs[0].lat < 30*time.Millisecond {
		t.Errorf("stalled request latency %v", outs[0].lat)
	}
	for _, o := range outs[1:] {
		if o.late < 25*time.Millisecond || o.lat < o.late {
			t.Errorf("queued request: late %v, latency %v; want both to count the stall", o.late, o.lat)
		}
		if o.rtt > 10*time.Millisecond {
			t.Errorf("queued request round trip %v includes the wait", o.rtt)
		}
	}
}

// TestConnectionsNeverExceedSenders drives a burst through the client the
// benchmark uses and counts the server's open connections.
func TestConnectionsNeverExceedSenders(t *testing.T) {
	const senders = 2
	var mu sync.Mutex
	open, peak := 0, 0
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Millisecond)
		w.Write([]byte("ok"))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch s {
		case http.StateNew:
			open++
			peak = max(peak, open)
		case http.StateClosed, http.StateHijacked:
			open--
		}
	}
	srv.Start()
	defer srv.Close()
	c := newClient(senders)
	defer c.CloseIdleConnections()
	due := make([]time.Duration, 200) // all due at once: the worst burst
	outs := openLoop(due, senders, func(int) func() error {
		return func() error {
			_, _, err := post(c, srv.URL, []byte("{}"))
			return err
		}
	})
	for _, o := range outs {
		if o.err != nil {
			t.Fatal(o.err)
		}
	}
	if peak > senders {
		t.Errorf("%d connections open at once, want at most %d", peak, senders)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 19)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := percentile(xs, 0.5); ok {
		t.Error("p50 of 19 samples reported with only 9 beyond it")
	}
	xs = append(xs, 20)
	if v, ok := percentile(xs, 0.5); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
	if _, ok := percentile(xs, 0.9); ok {
		t.Error("p90 of 20 samples reported")
	}
	if err := newResult().setPercentile("x_ms", xs, 0.99); err == nil {
		t.Error("setPercentile accepted a p99 of 20 samples")
	}
}

func TestPrintShowsSampleCounts(t *testing.T) {
	r := newResult()
	r.set("hit_p50_ms", 1.25, "ms", 812)
	r.set("setup_s", 0.5, "s", 3)
	r.Attempted = 5
	var b bytes.Buffer
	if err := r.print(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("printed %q", b.String())
	}
	for i, want := range []string{"n=812", "n=3"} {
		if !strings.HasSuffix(lines[i], want) {
			t.Errorf("line %q lacks its sample count %s", lines[i], want)
		}
	}
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[2]), &last); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(len(last)); got != "4" || last["correct"] != true {
		t.Errorf("verdict line %s", lines[2])
	}
}
