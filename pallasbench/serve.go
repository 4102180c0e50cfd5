package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pallas"
	"pallas/internal/server"
)

// serveRate is edit-serve's offered load in requests per second: half the
// server's capacity on this request mix on a 2-CPU host, taken as the
// highest offered rate (2000/s) at which 99% of requests still met the
// 20 ms limit (see README.md, "Workloads").
const serveRate = 1000

// serveRun is a live in-process server on a loopback port plus the client
// and schedule that drive it.
type serveRun struct {
	units  []unit
	reqs   []request
	vers   []version
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// startServe generates the schedule, starts a server with an in-memory
// incremental memo and a memory-only result cache, and primes both by
// posting every unit's starting content once.
func startServe(c config, units []unit, rate float64, dur time.Duration, edits bool) (*serveRun, error) {
	share := 0.0
	if edits {
		share = serveEditShare
	}
	reqs, vers := serveSchedule(c.seed, units, rate, dur.Seconds(), share)
	srv, err := server.New(server.Config{
		Analyzer: pallas.Config{Incremental: &pallas.IncrementalOptions{}},
		Workers:  c.nproc,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &serveRun{units: units, reqs: reqs, vers: vers, srv: srv,
		hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(), client: newClient(c.nproc)}
	go func() { s.served <- s.hs.Serve(ln) }()
	for v := range units {
		if _, err := s.analyze(s.body(v)); err != nil {
			s.close()
			return nil, fmt.Errorf("priming %s: %w", units[v].name, err)
		}
	}
	return s, nil
}

// body renders the /v1/analyze request for version v.
func (s *serveRun) body(v int) []byte {
	u := s.units[s.vers[v].unit]
	b, err := json.Marshal(server.AnalyzeRequest{Name: u.name, Source: s.vers[v].src, Spec: u.spec})
	if err != nil {
		panic(err) // strings always marshal
	}
	return b
}

// analyze posts one request body and returns the response body of a 200
// answer.
func (s *serveRun) analyze(body []byte) ([]byte, error) {
	status, b, err := post(s.client, s.base+"/v1/analyze", body)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", status, b)
	}
	return b, err
}

// reportDigest digests the report in an analyze response. The server
// indents its response, the embedded report included; compacted, the
// report must equal a cold analysis byte for byte, so only its digest needs
// keeping.
func reportDigest(b []byte) ([sha256.Size]byte, error) {
	var resp server.AnalyzeResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		return [sha256.Size]byte{}, err
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, resp.Report); err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(compact.Bytes()), nil
}

// close shuts the server down and waits for it to stop serving.
func (s *serveRun) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "pallasbench: shutdown:", err)
	}
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "pallasbench: serve:", err)
	}
	s.client.CloseIdleConnections()
	s.srv.Close()
}

// drive runs the schedule against the server and returns each request's
// outcome and report digest.
func (s *serveRun) drive(senders int) ([]outcome, [][sha256.Size]byte) {
	due := make([]time.Duration, len(s.reqs))
	for i, q := range s.reqs {
		due[i] = time.Duration(q.due * float64(time.Second))
	}
	digests := make([][sha256.Size]byte, len(s.reqs))
	errs := make([]error, len(s.reqs))
	// Digesting a response costs about as much as a cache hit, so one
	// goroutine does it off the senders' path; the buffer absorbs bursts.
	type answer struct {
		i    int
		body []byte
	}
	answers := make(chan answer, 1024)
	digested := make(chan struct{})
	go func() {
		defer close(digested)
		for a := range answers {
			digests[a.i], errs[a.i] = reportDigest(a.body)
		}
	}()
	outs := openLoop(due, senders, func(i int) func() error {
		body := s.body(s.reqs[i].version)
		return func() error {
			b, err := s.analyze(body)
			if err == nil {
				answers <- answer{i, b}
			}
			return err
		}
	})
	close(answers)
	<-digested
	for i, err := range errs {
		if err != nil && outs[i].err == nil {
			outs[i].err = err
		}
	}
	return outs, digests
}

// verify checks every outcome against a cold analysis of the content it
// sent — one with neither memo nor cache — and that analysis against the
// unit's declared findings. It returns which outcomes were correct.
func (s *serveRun) verify(res *result, outs []outcome, digests [][sha256.Size]byte, workers int) ([]bool, error) {
	cold := make([][sha256.Size]byte, len(s.vers))
	bad := make([]string, len(s.vers))
	err := forEach(len(s.vers), workers, func(i int) error {
		v := s.vers[i]
		u := s.units[v.unit]
		r, err := pallas.New(pallas.Config{}).AnalyzeSource(u.name, v.src, u.spec)
		if err != nil {
			return fmt.Errorf("cold %s: %w", u.name, err)
		}
		b, err := json.Marshal(r.Report)
		if err != nil {
			return err
		}
		cold[i], bad[i] = sha256.Sum256(b), u.want.check(b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ok := make([]bool, len(outs))
	for i, o := range outs {
		q := s.reqs[i]
		name := s.units[q.unit].name
		res.Attempted++
		switch {
		case o.err != nil:
			res.fail("request %d (%s): %v", i, name, o.err)
		case digests[i] != cold[q.version]:
			res.fail("request %d (%s): served report differs from a cold analysis", i, name)
		case bad[q.version] != "":
			res.fail("request %d (%s): %s", i, name, bad[q.version])
		default:
			ok[i] = true
		}
	}
	return ok, nil
}

// forEach runs f(0..n-1) on workers goroutines and joins the errors.
func forEach(n, workers int, f func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runServe measures edit-serve: an open loop at serveRate against the seven
// subsystem units, mixing re-posts of a unit's current content (cache hits)
// with one-function edits (cache misses the memo partly replays).
func runServe(c config, res *result) (*result, error) {
	units, err := subsystem()
	if err != nil {
		return nil, err
	}
	s, err := timedSetup(c, res, func() (*serveRun, error) {
		return startServe(c, units, serveRate, c.dur, true)
	}, (*serveRun).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if c.trace {
		return res, traceServe(c, s, res)
	}
	outs, digests := s.drive(c.nproc)
	ok, err := s.verify(res, outs, digests, c.nproc)
	if err != nil {
		return nil, err
	}
	var hit, edit []float64
	inSLO, good := 0, 0
	var last time.Duration
	for i, o := range outs {
		if !ok[i] {
			continue
		}
		good++
		if o.lat <= serveLimitMS*time.Millisecond {
			inSLO++
		}
		if s.reqs[i].edit {
			edit = append(edit, ms(o.lat))
		} else {
			hit = append(hit, ms(o.lat))
		}
		last = max(last, o.end)
	}
	if err := res.setPercentile("hit_p50_ms", hit, 0.5); err != nil {
		return nil, err
	}
	if err := res.setPercentile("edit_p50_ms", edit, 0.5); err != nil {
		return nil, err
	}
	res.set("slo_ratio", float64(inSLO)/float64(len(outs)), "ratio", len(outs))
	res.set("units_per_s", float64(good)/last.Seconds(), "1/s", good)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss, "MiB", 1)
	return res, nil
}

// scrape reads the server's /metrics exposition into name → value,
// skipping comments and labelled series.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
