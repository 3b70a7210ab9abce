package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/patternsoflife/pol/internal/api"
	"github.com/patternsoflife/pol/internal/dataflow"
	"github.com/patternsoflife/pol/internal/feed"
	"github.com/patternsoflife/pol/internal/ingest"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/obs"
	"github.com/patternsoflife/pol/internal/obs/trace"
	"github.com/patternsoflife/pol/internal/pipeline"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/segment"
)

// The system under test runs in its own process, assembled from the
// program's public constructors the way cmd/polserve wires them. The
// load generator drives it over two channels: loopback TCP for the bytes
// a client would send (NMEA feeds, HTTP queries), and a JSON-lines
// control protocol on stdin/stdout for set-up, barriers and the final
// measurements. Cross-process intervals (first byte sent → Finalize
// returned) are taken on the one host wall clock both processes share.

// Cmd is one control request.
type Cmd struct {
	Op       string   `json:"op"`
	Workload string   `json:"workload,omitempty"`
	Dir      string   `json:"dir,omitempty"`
	Archive  string   `json:"archive,omitempty"`
	Segment  string   `json:"segment,omitempty"`
	Out      string   `json:"out,omitempty"`
	Trace    bool     `json:"trace,omitempty"`
	TP       string   `json:"traceparent,omitempty"`
	Par      int      `json:"par,omitempty"`
	TickMs   int      `json:"tick_ms,omitempty"`
	Ckpt     int      `json:"ckpt_every,omitempty"`
	Expect   int64    `json:"expect,omitempty"`
	Paths    []string `json:"paths,omitempty"`
}

// Reply is one control response; fields are filled per op.
type Reply struct {
	Err      string  `json:"err,omitempty"`
	SetupS   float64 `json:"setup_s,omitempty"`
	FeedAddr string  `json:"feed_addr,omitempty"`
	HTTPAddr string  `json:"http_addr,omitempty"`

	Build    *BuildReply    `json:"build,omitempty"`
	Backfill *BackfillReply `json:"backfill,omitempty"`
	Live     *LiveReply     `json:"live,omitempty"`
	Answers  []Answer       `json:"answers,omitempty"`
	Final    *FinalReply    `json:"final,omitempty"`
}

// BuildReply reports one archive build.
type BuildReply struct {
	BuildS       float64            `json:"build_s"`
	PipelineS    float64            `json:"pipeline_s"`
	WriteS       float64            `json:"write_s"`
	OpenS        float64            `json:"open_s"`
	VerifyS      float64            `json:"verify_s"`
	Feed         feed.ReadStats     `json:"feed"`
	Trips        int64              `json:"trips"`
	Observations int64              `json:"observations"`
	Groups       int64              `json:"groups"`
	Write        segment.WriteStats `json:"write"`
	Digest       string             `json:"digest"`
	CountDigest  string             `json:"count_digest"`
	Equal        bool               `json:"equal"`
	Stages       map[string]float64 `json:"stages"` // dataflow stage → busy seconds
}

// BackfillReply reports one backfill's Finalize barrier.
type BackfillReply struct {
	DoneNs    int64        `json:"done_ns"`
	FinalizeS float64      `json:"finalize_s"`
	Raw       int64        `json:"raw_records"`
	Groups    int          `json:"groups"`
	Digest    string       `json:"digest"`
	Stats     ingest.Stats `json:"stats"`
	QueueMax  int          `json:"queue_max"`
}

// LiveReply reports a live-mixed run after Close and recovery.
type LiveReply struct {
	Swaps       [][2]int64       `json:"swaps"` // (unix ns, RawRecords) per observed snapshot swap
	CheckpointS []float64        `json:"checkpoint_s"`
	Generations int              `json:"generations"`
	RecoveryS   float64          `json:"recovery_s"`
	Groups      int              `json:"groups"`
	Stats       ingest.Stats     `json:"stats"`
	CkptBytes   map[string]int64 `json:"ckpt_bytes"`
	QueueMax    int              `json:"queue_max"`
	HeapMB      float64          `json:"heap_mb"`
}

// Answer is the in-process handler's response to one query path.
type Answer struct {
	Status int    `json:"status"`
	SHA    string `json:"sha256"`
}

// FinalReply closes the run.
type FinalReply struct {
	Proc   ProcStats          `json:"proc"`
	Spans  []SpanRec          `json:"spans,omitempty"`
	Aggs   map[string]Agg     `json:"aggs,omitempty"`
	Server map[string]float64 `json:"server_p99_ms,omitempty"`
	Bytes  map[string]int64   `json:"bytes,omitempty"`
}

func bodySHA(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

type sut struct {
	rec   *recorder
	gaz   *ports.Gazetteer
	idx   *ports.Index
	phase *phase

	// serving
	inv     *inventory.Inventory
	httpSrv *http.Server
	plain   http.Handler // the untraced handler over the same view

	// ingest
	eng      *ingest.Engine
	engOpt   ingest.Options
	feeds    *ingest.Server
	wd       *obs.Watchdog
	watch    *liveWatch
	cur      atomic.Pointer[ingest.Engine] // s.eng, for the queue sampler
	queueMax atomic.Int64
	qstop    chan struct{}
	qwg      sync.WaitGroup
}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

func sutMain(args []string) int {
	s := &sut{}
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 64<<20)
	out := json.NewEncoder(os.Stdout)
	for in.Scan() {
		var c Cmd
		rep := Reply{}
		if err := json.Unmarshal(in.Bytes(), &c); err != nil {
			rep.Err = err.Error()
		} else if err := s.do(c, &rep); err != nil {
			rep.Err = err.Error()
		}
		if err := out.Encode(rep); err != nil {
			return 1
		}
		if c.Op == "finish" {
			return 0
		}
	}
	s.teardown()
	return 0
}

func (s *sut) do(c Cmd, rep *Reply) error {
	switch c.Op {
	case "setup":
		if c.Trace && s.rec == nil {
			s.rec = newRecorder("sut")
		}
		s.teardown()
		// Clear the previous instance's files and garbage outside the
		// timing, so every set-up and the work after it start alike.
		if c.Dir != "" {
			if err := os.RemoveAll(c.Dir); err != nil {
				return err
			}
			if err := os.MkdirAll(c.Dir, 0o755); err != nil {
				return err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if err := s.setup(c, rep); err != nil {
			return err
		}
		rep.SetupS = time.Since(t0).Seconds()
		return nil
	case "start":
		s.phase = startPhase()
		if s.eng != nil && s.rec != nil {
			s.sampleQueue()
		}
		if c.Workload == "live-mixed" {
			s.watch = startWatch(s.eng)
		}
		return nil
	case "build":
		b, err := s.build(c)
		rep.Build = b
		return err
	case "finalize":
		b, err := s.finalize(c)
		rep.Backfill = b
		return err
	case "answers":
		for _, p := range c.Paths {
			rr := httptest.NewRecorder()
			s.plain.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, p, nil))
			rep.Answers = append(rep.Answers, Answer{Status: rr.Code, SHA: bodySHA(rr.Body.Bytes())})
		}
		return nil
	case "stop":
		l, err := s.stopLive(c)
		rep.Live = l
		return err
	case "end":
		// End of the timed phase: CPU, runtime deltas and the live heap
		// after a forced GC, while the workload's state is still held.
		s.stopQueue()
		rep.Final = &FinalReply{Proc: s.phase.end()}
		return nil
	case "finish":
		f := &FinalReply{}
		if s.rec != nil {
			f.Spans = s.rec.Spans()
			f.Aggs = map[string]Agg{}
			f.Server = map[string]float64{}
			s.rec.mu.Lock()
			for k, v := range s.rec.agg {
				f.Aggs[k] = *v
			}
			for k, v := range s.rec.server {
				f.Server[k] = Quantile(v, 0.99)
			}
			f.Bytes = s.rec.bytes
			s.rec.mu.Unlock()
		}
		rep.Final = f
		s.teardown()
		return nil
	}
	return fmt.Errorf("unknown op %q", c.Op)
}

// setup brings up the workload's SUT; the caller times it.
func (s *sut) setup(c Cmd, rep *Reply) error {
	switch c.Workload {
	case "archive-build":
		// Ready to build: the gazetteer and its compiled geofence index,
		// as polbuild assembles them before reading input.
		s.gaz = ports.Default()
		s.idx = ports.NewIndex(s.gaz, ports.IndexResolution)
		return nil
	case "serve-heap":
		s.gaz = ports.Default()
		sp := s.rec.StartTP("segment.load", c.TP)
		inv, err := segment.Load(c.Segment)
		sp.End()
		if err != nil {
			return err
		}
		s.inv = inv
		var view inventory.View = inv
		if s.rec != nil {
			view = tracedView{v: inv, rec: s.rec}
		}
		s.plain = api.NewServer(inv, s.gaz).Handler()
		return s.serveHTTP(api.NewServer(view, s.gaz), nil, rep)
	case "feed-backfill", "live-mixed":
		return s.setupEngine(c, rep)
	}
	return fmt.Errorf("unknown workload %q", c.Workload)
}

// serveHTTP mounts the api server as polserve does — per-endpoint metrics
// and tracing, /metrics, health and readiness, the shedding wrapper —
// on a loopback listener.
func (s *sut) serveHTTP(srv *api.Server, extra func(*http.ServeMux), rep *Reply) error {
	reg := obs.NewRegistry()
	tr := trace.New(trace.Options{Service: "polserve"})
	mux := http.NewServeMux()
	tr.Mount(mux)
	var h http.Handler = srv.WithMetrics(reg).WithTracing(tr).Handler()
	if s.rec != nil {
		h = TracedHandler(s.rec, h)
	}
	mux.Handle("/", h)
	if extra != nil {
		extra(mux)
	}
	mux.Handle("GET /metrics", reg.Handler())
	mux.Handle("GET /healthz", obs.HealthzHandler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.httpSrv = &http.Server{
		Handler:           obs.Shed(reg, 0, mux),
		ReadTimeout:       10 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go s.httpSrv.Serve(ln)
	rep.HTTPAddr = ln.Addr().String()
	return nil
}

func (s *sut) setupEngine(c Cmd, rep *Reply) error {
	s.gaz = ports.Default()
	reg := obs.NewRegistry()
	tr := trace.New(trace.Options{Service: "polserve-live", FlightDir: c.Dir})
	s.engOpt = ingest.Options{
		Resolution:  6,
		MergeEvery:  time.Duration(c.TickMs) * time.Millisecond,
		JournalPath: filepath.Join(c.Dir, "live.wal"),
		Description: "perfbench " + c.Workload,
		Logf:        func(string, ...any) {},
	}
	if c.Ckpt > 0 {
		s.engOpt.CheckpointPath = filepath.Join(c.Dir, "live.polinv")
		s.engOpt.CheckpointEvery = c.Ckpt
	}
	opt := s.engOpt
	opt.Metrics, opt.Tracer = reg, tr
	eng, err := ingest.NewEngine(opt)
	if err != nil {
		return err
	}
	s.eng = eng
	s.cur.Store(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.feeds = ingest.NewServer(eng, ln, ingest.ServerOptions{IdleTimeout: ingest.NoIdleTimeout, Logf: func(string, ...any) {}})
	rep.FeedAddr = ln.Addr().String()
	s.wd = obs.NewWatchdog(reg, obs.WatchdogOptions{Logger: quiet})
	eng.AttachWatchdog(s.wd)
	s.wd.Start()

	var src api.Source = eng
	if s.rec != nil {
		src = tracedSource{eng: eng, rec: s.rec}
	}
	srv := api.NewLiveServer(src, s.gaz)
	// The HTTP listener gets its own registry: the engine's counters are
	// already registered in reg, and polserve mounts both on one mux.
	return s.serveHTTP(srv, func(mux *http.ServeMux) {
		mux.Handle("GET /v1/ingest/stats", eng.StatsHandler())
		mux.Handle("GET /v1/repl/", eng.ReplHandler())
	}, rep)
}

// teardown stops whatever the previous setup started.
func (s *sut) teardown() {
	if s.httpSrv != nil {
		s.httpSrv.Close()
		s.httpSrv = nil
	}
	if s.wd != nil {
		s.wd.Stop()
		s.wd = nil
	}
	if s.feeds != nil {
		s.feeds.Close()
		s.feeds = nil
	}
	if s.eng != nil {
		s.cur.Store(nil)
		s.eng.Close()
		s.eng = nil
	}
	s.inv, s.plain = nil, nil
}

// build runs one archive build: open → decode → pipeline → segment
// renamed into place (timed as build_s), then verification.
func (s *sut) build(c Cmd) (*BuildReply, error) {
	b := &BuildReply{Stages: map[string]float64{}}
	t0 := time.Now()
	f, err := os.Open(c.Archive)
	if err != nil {
		return nil, err
	}
	r := feed.NewReader(f)
	var recs []model.PositionRecord
	traced := s.rec != nil
	for {
		var ti time.Time
		if traced {
			ti = time.Now()
		}
		it, err := r.NextItem()
		if traced {
			s.rec.Count("feed.NextItem", time.Since(ti))
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			f.Close()
			return nil, err
		}
		if it.Kind == feed.ItemPosition {
			recs = append(recs, it.Pos)
		}
	}
	f.Close()
	b.Feed = r.Stats()

	ctx := dataflow.NewContext(c.Par)
	sp := s.rec.StartTP("pipeline.run", c.TP)
	t1 := time.Now()
	res, err := pipeline.Run(dataflow.Parallelize(ctx, recs, c.Par*4), r.StaticsAsVesselInfo(), s.idx,
		pipeline.Options{Resolution: 6, Description: "perfbench archive-build"})
	b.PipelineS = time.Since(t1).Seconds()
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = s.rec.StartTP("segment.write", c.TP)
	t2 := time.Now()
	b.Write, err = segment.WriteFileSum(res.Inventory, c.Out)
	b.WriteS = time.Since(t2).Seconds()
	sp.End()
	b.BuildS = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	b.Trips, b.Observations, b.Groups = res.Stats.Trips, res.Stats.Observations, res.Stats.Groups
	for _, st := range ctx.Metrics().Stages() {
		b.Stages[st.Name] = st.Duration().Seconds()
	}

	// Verification, outside build_s: the reopened segment must equal the
	// heap build, and the heap build must digest to the seed's reference.
	sp = s.rec.StartTP("segment.open", c.TP)
	t3 := time.Now()
	rd, err := segment.Open(c.Out, segment.Options{})
	b.OpenS = time.Since(t3).Seconds()
	sp.End()
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	sp = s.rec.StartTP("segment.verify", c.TP)
	t4 := time.Now()
	b.Equal = inventory.EqualViews(rd, res.Inventory)
	b.VerifyS = time.Since(t4).Seconds()
	sp.End()
	if b.Digest, err = ContentDigest(res.Inventory); err != nil {
		return b, err
	}
	b.CountDigest, err = CountDigest(res.Inventory)
	return b, err
}

// finalize is the backfill barrier: once the engine has seen every
// position the generator sent, Finalize closes the stream as the batch
// extractor does at dataset end, and the published snapshot must hold
// all of them.
func (s *sut) finalize(c Cmd) (*BackfillReply, error) {
	for s.eng.StatsSnapshot().PositionsSeen < c.Expect {
		time.Sleep(200 * time.Microsecond)
	}
	sp := s.rec.StartTP("ingest.finalize", c.TP)
	t0 := time.Now()
	err := s.eng.Finalize()
	done := time.Now()
	sp.End()
	if err != nil {
		return nil, err
	}
	snap := s.eng.Snapshot()
	b := &BackfillReply{
		DoneNs: done.UnixNano(), FinalizeS: done.Sub(t0).Seconds(),
		Raw: snap.Info().RawRecords, Groups: snap.Len(),
		Stats: s.eng.StatsSnapshot(), QueueMax: int(s.queueMax.Load()),
	}
	b.Stats.Feeds = nil
	if b.Raw != c.Expect {
		return b, fmt.Errorf("snapshot holds %d raw records after Finalize, sent %d", b.Raw, c.Expect)
	}
	b.Digest, err = CountDigest(snap)
	return b, err
}

// sampleQueue tracks the engine queue's high-water mark (traced run only).
func (s *sut) sampleQueue() {
	s.qstop = make(chan struct{})
	s.qwg.Add(1)
	go func() {
		defer s.qwg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.qstop:
				return
			case <-t.C:
			}
			eng := s.cur.Load()
			if eng == nil {
				continue
			}
			if d := int64(eng.StatsSnapshot().QueueDepth); d > s.queueMax.Load() {
				s.queueMax.Store(d)
			}
		}
	}()
}

func (s *sut) stopQueue() {
	if s.qstop != nil {
		close(s.qstop)
		s.qwg.Wait()
		s.qstop = nil
	}
}

// liveWatch polls the engine's snapshot pointer, WAL frontier and
// checkpoint status every millisecond, recording each snapshot swap and
// when each checkpoint generation became visible.
type liveWatch struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	swaps [][2]int64
	walT  []int64  // unix ns at which walSeq[i] was first seen
	walS  []uint64 // non-decreasing WAL seqs
	ckpt  []float64
	gens  int
}

func startWatch(eng *ingest.Engine) *liveWatch {
	w := &liveWatch{stop: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		var last *inventory.Inventory
		var lastGen uint64
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			now := time.Now().UnixNano()
			if snap := eng.Snapshot(); snap != last {
				if last != nil {
					w.swaps = append(w.swaps, [2]int64{now, snap.Info().RawRecords})
				}
				last = snap
			}
			if seq := eng.WALSeq(); len(w.walS) == 0 || seq > w.walS[len(w.walS)-1] {
				w.walS = append(w.walS, seq)
				w.walT = append(w.walT, now)
			}
			if gen, seq := eng.CheckpointStatus(); gen != lastGen {
				lastGen = gen
				w.gens++
				i := sort.Search(len(w.walS), func(i int) bool { return w.walS[i] >= seq })
				if i < len(w.walS) {
					w.ckpt = append(w.ckpt, float64(now-w.walT[i])/1e9)
				}
			}
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// stopLive ends a live-mixed run: close the feeds and the engine (its
// final merge publishes the last snapshot), then time a cold start over
// the run's checkpoint and WAL and require it to reach the same snapshot.
func (s *sut) stopLive(c Cmd) (*LiveReply, error) {
	w := s.watch
	close(w.stop)
	w.wg.Wait()
	s.stopQueue()
	l := &LiveReply{
		Swaps: w.swaps, CheckpointS: w.ckpt, Generations: w.gens,
		QueueMax: int(s.queueMax.Load()),
	}
	if s.httpSrv != nil {
		s.httpSrv.Close()
		s.httpSrv = nil
	}
	s.wd.Stop()
	s.wd = nil
	s.feeds.Close()
	s.feeds = nil
	s.cur.Store(nil)
	if err := s.eng.Close(); err != nil {
		return l, err
	}
	final := s.eng.Snapshot()
	// The live heap is read once Close has drained the queue and joined
	// the background checkpoint, whose encode buffers would otherwise
	// make it depend on where the checkpoint cycle stood.
	l.HeapMB = liveHeapMB()
	runtime.KeepAlive(s.eng)
	l.Stats = s.eng.StatsSnapshot()
	l.Stats.Feeds = nil
	l.Groups = final.Len()
	s.eng = nil
	l.CkptBytes = dirBytes(c.Dir)

	sp := s.rec.StartTP("ingest.recovery", c.TP)
	t0 := time.Now()
	eng, err := ingest.NewEngine(s.engOpt)
	l.RecoveryS = time.Since(t0).Seconds()
	sp.End()
	if err != nil {
		return l, err
	}
	defer eng.Close()
	if !inventory.EqualViews(final, eng.Snapshot()) {
		return l, fmt.Errorf("recovered snapshot (%d groups) differs from the final one (%d groups)", eng.Snapshot().Len(), final.Len())
	}
	return l, nil
}

// dirBytes sums file sizes in a checkpoint directory by kind: POLINV
// generations, POLSEG1 segments, engine state, WAL segments, manifest.
func dirBytes(dir string) map[string]int64 {
	out := map[string]int64{}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil || !fi.Mode().IsRegular() {
			continue
		}
		name := e.Name()
		kind := "other"
		switch {
		case strings.HasPrefix(name, "live.wal"):
			kind = "wal"
		case strings.HasSuffix(name, ".manifest"):
			kind = "manifest"
		case strings.HasSuffix(name, ".state"):
			kind = "state"
		case strings.HasSuffix(name, ".seg"):
			kind = "seg"
		case strings.HasPrefix(name, "live.polinv"):
			kind = "polinv"
		}
		out[kind] += fi.Size()
	}
	return out
}
