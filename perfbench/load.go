package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"github.com/patternsoflife/pol/internal/obs/trace"
)

// queryMix is polload's default mix — info=1, cell=6, destinations=2,
// eta=1 — with uniform positions in its default 45,-10,60,10 box and its
// default Rotterdam → Hamburg ETA pair. The query paths are rendered
// exactly as polload renders them.
type queryMix struct{ rng *rand.Rand }

var mixWeights = []struct {
	kind   string
	weight int
}{{"info", 1}, {"cell", 6}, {"destinations", 2}, {"eta", 1}}

const (
	boxLatMin, boxLngMin, boxLatMax, boxLngMax = 45.0, -10.0, 60.0, 10.0
	etaOrigin, etaDest                         = "Rotterdam", "Hamburg"
)

func newQueryMix(seed int64) *queryMix { return &queryMix{rng: rand.New(rand.NewSource(seed))} }

// draw returns (endpoint, path).
func (m *queryMix) draw() (string, string) {
	r := m.rng.Intn(10)
	kind := "eta"
	for _, w := range mixWeights {
		if r < w.weight {
			kind = w.kind
			break
		}
		r -= w.weight
	}
	lat := boxLatMin + m.rng.Float64()*(boxLatMax-boxLatMin)
	lng := boxLngMin + m.rng.Float64()*(boxLngMax-boxLngMin)
	switch kind {
	case "info":
		return kind, "/v1/info"
	case "cell":
		return kind, fmt.Sprintf("/v1/cell?lat=%.4f&lng=%.4f", lat, lng)
	case "destinations":
		return kind, fmt.Sprintf("/v1/destinations?lat=%.4f&lng=%.4f&n=5", lat, lng)
	default:
		return kind, "/v1/eta?origin=" + url.QueryEscape(etaOrigin) + "&dest=" + url.QueryEscape(etaDest)
	}
}

// Sample is one open-loop request. Times are nanoseconds from the
// schedule start: due is when the schedule said to send it, disp when a
// connection actually sent it, done when its last response byte arrived.
type Sample struct {
	Kind   string
	Path   string
	Due    int64
	Disp   int64
	Done   int64
	Late   int64 // dispatch lateness: disp − max(due, when the connection came free)
	Status int
	OK     bool   // served: any status below 500 (a 404 for an empty cell counts)
	SHA    string // body hash, for the sampled requests only
}

// LatencyMs is due time → last byte.
func (s Sample) LatencyMs() float64 { return float64(s.Done-s.Due) / 1e6 }

// QueueMs is due time → dispatch.
func (s Sample) QueueMs() float64 { return float64(s.Disp-s.Due) / 1e6 }

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 5 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
		},
	}
}

// openLoop fires rate×dur requests on an absolute schedule (request i is
// due at start + i/rate) over conns keep-alive connections, one worker per
// connection. A request whose connection is still busy at its due time
// waits, and that wait counts in its latency — no coordinated omission.
// Every hashEvery-th response body is hashed for the correctness gate
// (0 disables). With rec set, each request roots a span and carries its
// traceparent.
func openLoop(client *http.Client, base string, conns int, rate float64, dur time.Duration,
	mix *queryMix, hashEvery int, rec *recorder) []Sample {
	n := int(rate * dur.Seconds())
	out := make([]Sample, n)
	for i := range out {
		out[i].Kind, out[i].Path = mix.draw()
		out[i].Due = int64(float64(i) / rate * 1e9)
	}
	start := time.Now().Add(2 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 32<<10)
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := &out[i]
				free := time.Since(start).Nanoseconds()
				if d := time.Duration(s.Due - free); d > 0 {
					time.Sleep(d)
				}
				s.Disp = time.Since(start).Nanoseconds()
				s.Late = s.Disp - max(s.Due, free)
				sp := rec.Start("load."+s.Kind, trace.SpanContext{})
				s.Status, s.SHA = fire(client, base+s.Path, sp.Traceparent(), hashEvery > 0 && i%hashEvery == 0, buf)
				sp.End()
				s.Done = time.Since(start).Nanoseconds()
				s.OK = s.Status > 0 && s.Status < 500
			}
		}()
	}
	wg.Wait()
	return out
}

// fire sends one GET and reads the whole body; status 0 is a transport
// error or timeout.
func fire(client *http.Client, u, traceparent string, hash bool, buf []byte) (int, string) {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return 0, ""
	}
	if traceparent != "" {
		req.Header.Set(trace.Header, traceparent)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, ""
	}
	defer resp.Body.Close()
	var sum string
	if hash {
		h := sha256.New()
		if _, err := io.CopyBuffer(h, resp.Body, buf); err != nil {
			return 0, ""
		}
		sum = hex.EncodeToString(h.Sum(nil))
	} else if _, err := io.CopyBuffer(io.Discard, resp.Body, buf); err != nil {
		return 0, ""
	}
	return resp.StatusCode, sum
}

// loadSummary reduces samples: served latencies, failures, lateness.
type loadSummary struct {
	Attempted int
	Failed    int
	LatMs     []float64 // served requests only
	QueueMs   []float64
	LateMs    []float64
	SpanNs    int64 // schedule span: first due → last done
}

func summarize(samples []Sample) loadSummary {
	s := loadSummary{Attempted: len(samples)}
	for _, x := range samples {
		s.LateMs = append(s.LateMs, float64(x.Late)/1e6)
		s.QueueMs = append(s.QueueMs, x.QueueMs())
		if !x.OK {
			s.Failed++
			continue
		}
		s.LatMs = append(s.LatMs, x.LatencyMs())
		s.SpanNs = max(s.SpanNs, x.Done)
	}
	return s
}

// rung turns one ladder probe's samples into a judged Rung.
func rung(rate float64, samples []Sample, lim RungLimits) Rung {
	s := summarize(samples)
	r := Rung{Rate: rate, Attempted: s.Attempted, Failed: s.Failed}
	if s.Attempted > 0 {
		r.P99Ms = Quantile(LatencyWithFailures(s.LatMs, s.Failed), 0.99)
		r.LatenessP99 = Quantile(s.LateMs, 0.99)
	}
	if s.SpanNs > 0 {
		r.Achieved = float64(s.Attempted-s.Failed) / (float64(s.SpanNs) / 1e9)
	}
	lim.Judge(&r)
	if math.IsInf(r.P99Ms, 1) {
		r.P99Ms = math.MaxFloat64 // more than 1% failed; JSON has no +Inf
	}
	return r
}
