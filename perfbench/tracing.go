package main

import (
	"bytes"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/ingest"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/obs/trace"
)

// The benchmark's traced run records its own spans around calls into each
// layer's public functions. Spans stay in memory and are written out when
// the run ends; nothing here changes what the program itself traces. A
// nil *recorder is the untraced run: every method is a no-op and the
// wrappers are not installed, so the untraced run exercises exactly the
// deployed wiring.

// SpanRec is one finished span.
type SpanRec struct {
	Trace  string `json:"trace"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Proc   string `json:"proc"`
	Start  int64  `json:"start_unix_ns"`
	Dur    int64  `json:"dur_ns"`
	Self   int64  `json:"self_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// Agg is the count and total time of a hot per-item path, aggregated
// instead of emitting one span per item.
type Agg struct {
	Calls int64 `json:"calls"`
	Nanos int64 `json:"nanos"`
}

type recorder struct {
	proc string

	mu     sync.Mutex
	spans  []SpanRec
	open   map[uint64]*Active // goroutine id → innermost open span
	agg    map[string]*Agg
	server map[string][]float64 // api span name → durations (ms)
	bytes  map[string]int64     // api span name → response bytes
}

func newRecorder(proc string) *recorder {
	return &recorder{
		proc:   proc,
		open:   map[uint64]*Active{},
		agg:    map[string]*Agg{},
		server: map[string][]float64{},
		bytes:  map[string]int64{},
	}
}

// Active is an open span.
type Active struct {
	rec    *recorder
	sc     trace.SpanContext
	parent trace.SpanID
	name   string
	start  time.Time
	bytes  int64
}

// Start opens a span under parent (a fresh trace when parent is invalid).
func (r *recorder) Start(name string, parent trace.SpanContext) *Active {
	if r == nil {
		return nil
	}
	a := &Active{rec: r, name: name, start: time.Now(), sc: trace.SpanContext{SpanID: trace.NewSpanID()}}
	if parent.Valid() {
		a.sc.TraceID, a.parent = parent.TraceID, parent.SpanID
	} else {
		a.sc.TraceID = trace.NewTraceID()
	}
	return a
}

// StartTP opens a span under a W3C traceparent string.
func (r *recorder) StartTP(name, traceparent string) *Active {
	sc, _ := trace.ParseTraceparent(traceparent)
	return r.Start(name, sc)
}

// Traceparent is the span's W3C header value ("" for nil).
func (a *Active) Traceparent() string {
	if a == nil {
		return ""
	}
	return trace.FormatTraceparent(a.sc)
}

// End finishes the span and returns its duration.
func (a *Active) End() time.Duration {
	if a == nil {
		return 0
	}
	d := time.Since(a.start)
	a.rec.add(a.sc, a.parent, a.name, a.start, d, a.bytes)
	return d
}

func (r *recorder) add(sc trace.SpanContext, parent trace.SpanID, name string, start time.Time, d time.Duration, n int64) {
	rec := SpanRec{
		Trace: sc.TraceID.String(), ID: sc.SpanID.String(), Name: name, Proc: r.proc,
		Start: start.UnixNano(), Dur: int64(d), Bytes: n,
	}
	if !parent.IsZero() {
		rec.Parent = parent.String()
	}
	r.mu.Lock()
	r.spans = append(r.spans, rec)
	r.mu.Unlock()
}

// Bind makes a the parent of spans recorded by Child on this goroutine
// until Unbind — the stand-in for a context the layer's API does not take.
func (r *recorder) Bind(a *Active) {
	if r == nil {
		return
	}
	id := goid()
	r.mu.Lock()
	r.open[id] = a
	r.mu.Unlock()
}

// Unbind clears the goroutine's bound span.
func (r *recorder) Unbind() {
	if r == nil {
		return
	}
	id := goid()
	r.mu.Lock()
	delete(r.open, id)
	r.mu.Unlock()
}

// Child records a finished call that began at start as a span under the
// goroutine's bound span (a root when none is bound), and adds it to the
// call's aggregate. Meant for defer: defer rec.Child("x", time.Now()).
func (r *recorder) Child(name string, start time.Time) {
	if r == nil {
		return
	}
	d := time.Since(start)
	id := goid()
	r.mu.Lock()
	parent := r.open[id]
	a := r.agg[name]
	if a == nil {
		a = &Agg{}
		r.agg[name] = a
	}
	a.Calls++
	a.Nanos += int64(d)
	r.mu.Unlock()
	pc := trace.SpanContext{TraceID: trace.NewTraceID()}
	if parent != nil {
		pc = parent.sc
	}
	sc := trace.SpanContext{TraceID: pc.TraceID, SpanID: trace.NewSpanID()}
	r.add(sc, pc.SpanID, name, start, d, 0)
}

// Count adds one call of d to a per-item aggregate without a span.
func (r *recorder) Count(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	a := r.agg[name]
	if a == nil {
		a = &Agg{}
		r.agg[name] = a
	}
	a.Calls++
	a.Nanos += int64(d)
	r.mu.Unlock()
}

// Spans returns every finished span with its self time: duration minus
// the time covered by its direct children.
func (r *recorder) Spans() []SpanRec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := append([]SpanRec(nil), r.spans...)
	r.mu.Unlock()
	return withSelf(spans)
}

func withSelf(spans []SpanRec) []SpanRec {
	childNs := map[string]int64{}
	for _, s := range spans {
		if s.Parent != "" {
			childNs[s.Trace+"/"+s.Parent] += s.Dur
		}
	}
	for i := range spans {
		spans[i].Self = spans[i].Dur - childNs[spans[i].Trace+"/"+spans[i].ID]
		if spans[i].Self < 0 {
			spans[i].Self = 0
		}
	}
	return spans
}

// goid parses the current goroutine's id from its stack header. It costs
// about a microsecond, so only the traced run calls it.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// TracedHandler wraps the api handler: one api.<endpoint> span per
// request, joined to the generator's trace through the traceparent
// header, bound as the parent of the inventory spans the request makes.
func TracedHandler(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "api." + strings.TrimPrefix(r.URL.Path, "/v1/")
		sc, _ := trace.Extract(r)
		sp := rec.Start(name, sc)
		rec.Bind(sp)
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		rec.Unbind()
		sp.bytes = cw.n
		d := sp.End()
		rec.mu.Lock()
		rec.server[name] = append(rec.server[name], float64(d)/1e6)
		rec.bytes[name] += cw.n
		rec.mu.Unlock()
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// Inventory call categories, as the per-layer metrics group them.
var (
	lookupCalls    = []string{"Get", "Cell", "At", "TypeSummary", "ODSummary", "MostFrequentDestination"}
	aggregateCalls = []string{"CountGroups", "Cells", "Utilization", "Compression"}
	odCalls        = []string{"ODCells"}
)

// tracedView records an inventory.<Method> child span around every View
// call it forwards.
type tracedView struct {
	v   inventory.View
	rec *recorder
}

var _ inventory.View = tracedView{}

func (t tracedView) Info() inventory.BuildInfo {
	defer t.rec.Child("inventory.Info", time.Now())
	return t.v.Info()
}

func (t tracedView) Len() int {
	defer t.rec.Child("inventory.Len", time.Now())
	return t.v.Len()
}

func (t tracedView) Get(k inventory.GroupKey) (*inventory.CellSummary, bool) {
	defer t.rec.Child("inventory.Get", time.Now())
	return t.v.Get(k)
}

func (t tracedView) Cell(c hexgrid.Cell) (*inventory.CellSummary, bool) {
	defer t.rec.Child("inventory.Cell", time.Now())
	return t.v.Cell(c)
}

func (t tracedView) At(p geo.LatLng) (*inventory.CellSummary, bool) {
	defer t.rec.Child("inventory.At", time.Now())
	return t.v.At(p)
}

func (t tracedView) CountGroups(set inventory.GroupSet) int {
	defer t.rec.Child("inventory.CountGroups", time.Now())
	return t.v.CountGroups(set)
}

func (t tracedView) Cells(set inventory.GroupSet) []hexgrid.Cell {
	defer t.rec.Child("inventory.Cells", time.Now())
	return t.v.Cells(set)
}

func (t tracedView) Each(f func(inventory.GroupKey, *inventory.CellSummary) bool) {
	defer t.rec.Child("inventory.Each", time.Now())
	t.v.Each(f)
}

func (t tracedView) ODCells(o, d model.PortID, vt model.VesselType) []hexgrid.Cell {
	defer t.rec.Child("inventory.ODCells", time.Now())
	return t.v.ODCells(o, d, vt)
}

func (t tracedView) ODSummary(c hexgrid.Cell, o, d model.PortID, vt model.VesselType) (*inventory.CellSummary, bool) {
	defer t.rec.Child("inventory.ODSummary", time.Now())
	return t.v.ODSummary(c, o, d, vt)
}

func (t tracedView) TypeSummary(c hexgrid.Cell, vt model.VesselType) (*inventory.CellSummary, bool) {
	defer t.rec.Child("inventory.TypeSummary", time.Now())
	return t.v.TypeSummary(c, vt)
}

func (t tracedView) MostFrequentDestination(c hexgrid.Cell) (model.PortID, uint64, bool) {
	defer t.rec.Child("inventory.MostFrequentDestination", time.Now())
	return t.v.MostFrequentDestination(c)
}

func (t tracedView) Compression(set inventory.GroupSet) float64 {
	defer t.rec.Child("inventory.Compression", time.Now())
	return t.v.Compression(set)
}

func (t tracedView) Utilization() float64 {
	defer t.rec.Child("inventory.Utilization", time.Now())
	return t.v.Utilization()
}

// tracedSource is the live api.Source wrapper: each request's snapshot is
// handed out behind a tracedView. It forwards api.LiveStatus and
// api.WALStatus so /v1/info stays byte-identical to the unwrapped engine.
type tracedSource struct {
	eng *ingest.Engine
	rec *recorder
}

func (s tracedSource) Inventory() inventory.View {
	return tracedView{v: s.eng.Inventory(), rec: s.rec}
}

func (s tracedSource) Uptime() time.Duration      { return s.eng.Uptime() }
func (s tracedSource) SnapshotAge() time.Duration { return s.eng.SnapshotAge() }
func (s tracedSource) WALStatus() (ckptGen, ckptSeq, walSeq uint64) {
	return s.eng.WALStatus()
}
