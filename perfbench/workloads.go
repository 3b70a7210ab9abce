package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/patternsoflife/pol/internal/obs/trace"
)

// layer records a per-layer metric in a traced phase (no-op otherwise).
func (p *phaseCtx) layer(name string, v float64) {
	if p.res.Layers != nil {
		p.res.Layers[name] = v
	}
}

// reference builds the archive in this process, outside any timed
// section, through the same code path the SUT times, and records the
// build's digests and shape with the cached input. With seg set the
// built segment is kept there.
func (p *phaseCtx) reference(a *Archive, seg string) error {
	if a.ContentDigest != "" && (seg == "" || fileExists(seg)) {
		return nil
	}
	ref := &sut{}
	if err := ref.setup(Cmd{Workload: "archive-build"}, &Reply{}); err != nil {
		return err
	}
	out := seg
	if out == "" {
		out = a.Path + ".ref.seg"
		defer os.Remove(out)
	}
	b, err := ref.build(Cmd{Archive: a.Path, Out: out, Par: buildPar})
	if err != nil {
		return err
	}
	if !b.Equal {
		return fmt.Errorf("reference build: reopened segment differs from the heap build")
	}
	a.ContentDigest, a.CountDigest = b.Digest, b.CountDigest
	a.Trips, a.Groups = b.Trips, b.Groups
	return p.cache.saveMeta(a)
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// runArchiveBuild: repeated batch builds of one seeded archive into a
// POLSEG1 segment, each verified against the seed's reference digest and
// by reopening the segment.
func runArchiveBuild(p *phaseCtx) error {
	a, err := p.cache.archive(p.sz.Build, p.o.Seed)
	if err != nil {
		return err
	}
	if err := p.reference(a, ""); err != nil {
		return err
	}
	p.res.Inputs = *a
	if _, err := p.setups(Cmd{Op: "setup", Workload: "archive-build", Trace: p.rec != nil}); err != nil {
		return err
	}
	out := filepath.Join(p.base, "work", "archive-build.seg")
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := p.begin(); err != nil {
		return err
	}
	var rates, walls []float64
	var last *BuildReply
	for stop := p.deadline(); len(rates) < 3 || time.Now().Before(stop); {
		root := p.rec.Start("build", trace.SpanContext{})
		rep, err := p.sut.call(Cmd{Op: "build", Archive: a.Path, Out: out, Par: buildPar, TP: root.Traceparent()})
		root.End()
		p.res.Attempted++
		if err != nil {
			p.res.Failed++
			p.res.fail("build %d: %v", len(rates), err)
			break
		}
		b := rep.Build
		if b.Digest != a.ContentDigest {
			p.res.fail("build %d: content digest %s, seed %d records %s", len(rates), b.Digest, p.o.Seed, a.ContentDigest)
		}
		if !b.Equal {
			p.res.fail("build %d: reopened segment is not EqualViews to the heap build", len(rates))
		}
		rates = append(rates, float64(b.Feed.Positions)/b.BuildS)
		walls = append(walls, b.BuildS*1e3)
		last = b
	}
	if err := p.end(); err != nil {
		return err
	}
	if last == nil {
		return nil
	}
	p.res.E2E["throughput_per_s"] = Metric{Median(rates), "1/s"}
	p.res.E2E["latency_ms"] = Metric{Median(walls), "ms"}
	p.res.named("build_records_per_s", "1/s", Median(rates))
	p.res.Detail["builds"] = len(rates)
	p.res.Detail["build_records_per_s_all"] = rates

	p.layer("feed.lines", float64(last.Feed.Lines))
	p.layer("feed.bad_lines", float64(last.Feed.BadLines))
	p.layer("feed.bad_nmea", float64(last.Feed.BadNMEA))
	p.layer("pipeline.run_s", last.PipelineS)
	for _, st := range dataflowStages {
		p.layer("dataflow."+st+".busy_s", last.Stages[st])
	}
	p.layer("pipeline.trips", float64(last.Trips))
	p.layer("pipeline.observations", float64(last.Observations))
	p.layer("inventory.groups", float64(last.Groups))
	p.layer("segment.write_s", last.WriteS)
	p.layer("segment.bytes", float64(last.Write.Size))
	p.layer("segment.raw_bytes", float64(last.Write.RawBytes))
	p.layer("segment.compression_ratio", float64(last.Write.Size)/float64(max(last.Write.RawBytes, 1)))
	p.layer("segment.open_s", last.OpenS)
	p.layer("segment.verify_s", last.VerifyS)
	return nil
}

// sendAll writes data to conn as fast as the receiver's backpressure
// allows and returns the time spent blocked in Write.
func sendAll(conn net.Conn, data []byte) (time.Duration, error) {
	const chunk = 64 << 10
	var blocked time.Duration
	for off := 0; off < len(data); off += chunk {
		end := min(off+chunk, len(data))
		t := time.Now()
		if _, err := conn.Write(data[off:end]); err != nil {
			return blocked, err
		}
		blocked += time.Since(t)
	}
	return blocked, nil
}

// runFeedBackfill: repeated backfills of one archive over one TCP
// connection into a fresh engine (WAL on, checkpoints off), each ending
// at a Finalize barrier whose snapshot must match the batch build.
func runFeedBackfill(p *phaseCtx) error {
	a, err := p.cache.archive(p.sz.Backfill, p.o.Seed)
	if err != nil {
		return err
	}
	if err := p.reference(a, ""); err != nil {
		return err
	}
	p.res.Inputs = *a
	data, err := os.ReadFile(a.Path)
	if err != nil {
		return err
	}
	setup := Cmd{Op: "setup", Workload: "feed-backfill", Dir: filepath.Join(p.base, "work", "feed-backfill"),
		TickMs: 2000, Trace: p.rec != nil}
	rep, err := p.sut.call(setup)
	if err != nil {
		return err
	}
	setupTimes := []float64{rep.SetupS}
	if err := p.begin(); err != nil {
		return err
	}
	var rates, walls, blocked []float64
	var last *BackfillReply
	for stop := p.deadline(); len(rates) < setupRepeats || time.Now().Before(stop); {
		if len(rates) > 0 {
			if rep, err = p.sut.call(setup); err != nil {
				return err
			}
			setupTimes = append(setupTimes, rep.SetupS)
		}
		p.res.Attempted++
		root := p.rec.Start("feed.backfill", trace.SpanContext{})
		conn, err := net.Dial("tcp", rep.FeedAddr)
		if err != nil {
			return err
		}
		t0 := time.Now()
		b, err := sendAll(conn, data)
		conn.Close()
		if err != nil {
			p.res.Failed++
			p.res.fail("backfill %d: feed write: %v", len(rates), err)
			root.End()
			break
		}
		fin, err := p.sut.call(Cmd{Op: "finalize", Expect: a.Positions, TP: root.Traceparent()})
		root.End()
		if err != nil {
			p.res.Failed++
			p.res.fail("backfill %d: %v", len(rates), err)
			break
		}
		bf := fin.Backfill
		if bf.Digest != a.CountDigest {
			p.res.fail("backfill %d: group set / record counts differ from the batch build (%d groups, batch %d)",
				len(rates), bf.Groups, a.Groups)
		}
		wall := time.Duration(bf.DoneNs - t0.UnixNano())
		rates = append(rates, float64(a.Positions)/wall.Seconds())
		walls = append(walls, wall.Seconds()*1e3)
		blocked = append(blocked, b.Seconds())
		last = bf
	}
	if err := p.end(); err != nil {
		return err
	}
	p.setSetup(setupTimes)
	if last == nil {
		return nil
	}
	p.res.E2E["throughput_per_s"] = Metric{Median(rates), "1/s"}
	p.res.E2E["latency_ms"] = Metric{Median(walls), "ms"}
	p.res.named("ingest_records_per_s", "1/s", Median(rates))
	p.res.Detail["backfills"] = len(rates)
	p.res.Detail["ingest_records_per_s_all"] = rates

	st := last.Stats
	p.layer("feed.send_blocked_s", Median(blocked))
	p.layer("ingest.queue_depth_max", float64(last.QueueMax))
	p.layer("ingest.finalize_s", last.FinalizeS)
	p.layer("ingest.journal_bytes", float64(st.JournalBytes))
	p.layer("ingest.positions", float64(st.PositionsSeen))
	p.layer("ingest.accepted", float64(st.Accepted))
	p.layer("ingest.rejected", float64(st.Rejected))
	p.layer("ingest.trips", float64(st.Trips))
	p.layer("ingest.observations", float64(st.Observations))
	p.layer("ingest.publishes", float64(st.Merges))
	p.layer("ingest.merge_avg_ms", float64(st.AvgMergeMicros)/1e3)
	p.layer("inventory.groups", float64(last.Groups))
	return nil
}

// runServeHeap: polload's default mix, open loop over nproc keep-alive
// connections, against a heap inventory materialised from a seeded
// segment — a reference-rate phase for the latency quantiles, then a
// bisection over a fixed rate ladder for the highest rate that meets the
// latency limit.
func runServeHeap(p *phaseCtx) error {
	a, err := p.cache.archive(p.sz.Serve, p.o.Seed)
	if err != nil {
		return err
	}
	seg := p.cache.path(p.sz.Serve, p.o.Seed, ".seg")
	if err := p.reference(a, seg); err != nil {
		return err
	}
	p.res.Inputs = *a
	rep, err := p.setups(Cmd{Op: "setup", Workload: "serve-heap", Segment: seg, Trace: p.rec != nil})
	if err != nil {
		return err
	}
	conns := p.res.Host.NumCPU
	client := newClient(conns)
	defer client.CloseIdleConnections()
	base := "http://" + rep.HTTPAddr
	// Warm the connections and the handler paths; not measured.
	openLoop(client, base, conns, p.sz.RefRate, 500*time.Millisecond, newQueryMix(p.o.Seed+1000), 0, nil)

	if err := p.begin(); err != nil {
		return err
	}
	refDur := time.Duration(p.o.Seconds * 0.4 * float64(time.Second))
	const hashEvery = 25
	ref := openLoop(client, base, conns, p.sz.RefRate, refDur, newQueryMix(p.o.Seed), hashEvery, p.rec)
	rs := summarize(ref)
	p.res.Attempted += rs.Attempted
	p.res.Failed += rs.Failed
	// The timed phase, with its CPU and heap readings, is the reference
	// phase; the ladder below saturates the box on purpose.
	if err := p.end(); err != nil {
		return err
	}

	rungs := Ladder(p.sz.LadderLo, p.sz.LadderHi, ladderRatio)
	probeDur := time.Duration(p.o.Seconds * 0.6 / float64(bisectDepth(len(rungs))+2) * float64(time.Second))
	lim := RungLimits{P99Ms: rungP99Ms, LatenessMs: rungLateMs, MinAttempts: p.sz.MinRungReq, MinKeepUp: rungKeepUp}
	probeN, retries := 0, 0
	var probes []Rung
	probe := func(rate float64) Rung {
		probeN++
		s := openLoop(client, base, conns, rate, probeDur, newQueryMix(p.o.Seed+int64(probeN)), 0, p.rec)
		// Let a saturated server drain before the next probe.
		time.Sleep(100 * time.Millisecond)
		r := rung(rate, s, lim)
		probes = append(probes, r)
		return r
	}
	// A failing rung is probed once more (at most twice per run) before
	// the search believes it: one stall on a shared 2-core host must not
	// cut the ladder short.
	best, _ := SearchLadder(rungs, func(rate float64) Rung {
		r := probe(rate)
		if !r.Pass && retries < 2 {
			retries++
			r = probe(rate)
		}
		return r
	})
	for _, r := range probes {
		p.res.Attempted += r.Attempted
		p.res.Failed += r.Failed
	}

	// Correctness: every hashed response must be byte-identical to the
	// in-process handler's answer over the same inventory.
	var paths []string
	var want []Sample
	for _, s := range ref {
		if s.SHA != "" {
			paths, want = append(paths, s.Path), append(want, s)
		}
	}
	ans, err := p.sut.call(Cmd{Op: "answers", Paths: paths})
	if err != nil {
		return err
	}
	for i, got := range ans.Answers {
		if got.Status != want[i].Status || got.SHA != want[i].SHA {
			p.res.fail("response %s: HTTP %d %s…, in-process %d %s…", want[i].Path,
				want[i].Status, short(want[i].SHA), got.Status, short(got.SHA))
			break
		}
	}
	p.res.Detail["answers_checked"] = len(paths)
	if rs.Failed > 0 {
		p.res.fail("%d of %d reference-rate requests failed", rs.Failed, rs.Attempted)
	}

	p50, p99 := Quantile(rs.LatMs, 0.5), Quantile(rs.LatMs, 0.99)
	// No passing rung is a measurement (query_max_rps stays n/a), not a
	// wrong answer.
	maxRPS := math.NaN()
	for _, r := range probes {
		if best >= 0 && r.Rate == rungs[best] && r.Pass {
			maxRPS = r.Achieved
		}
	}
	// Saturation throughput on a 2-core box shared by generator and SUT
	// swings 2× between runs of one seed, so the bounded throughput is the
	// serving capacity per core: queries served per SUT CPU-second at the
	// reference rate. query_max_rps is reported beside it.
	perCPU := float64(len(rs.LatMs)) / p.res.SUT.CPUSeconds
	p.res.E2E["throughput_per_s"] = Metric{perCPU, "1/s"}
	p.res.E2E["latency_ms"] = Metric{p50, "ms"}
	p.res.Detail["queries_per_sut_cpu_s"] = perCPU
	p.res.named("query_p50_ms", "ms", p50)
	p.res.named("query_p99_ms", "ms", p99)
	p.res.named("query_max_rps", "1/s", maxRPS)
	p.res.Detail["reference_rate"] = p.sz.RefRate
	p.res.Detail["reference_tail"] = TailQuantile(rs.LatMs)
	p.res.Detail["ladder_probes"] = probes
	p.res.Detail["latency_limit_ms"] = rungP99Ms
	p.res.Detail["lateness_limit_ms"] = rungLateMs

	p.layer("http.queue_wait_p99_ms", Quantile(rs.QueueMs, 0.99))
	p.layer("http.lateness_p99_ms", Quantile(rs.LateMs, 0.99))
	p.layer("inventory.groups", float64(a.Groups))
	return nil
}

// bisectDepth is how many probes SearchLadder makes over n rungs at most.
func bisectDepth(n int) int {
	d := 0
	for span := n + 1; span > 1; span = (span + 1) / 2 {
		d++
	}
	return d
}

func short(s string) string { return s[:min(len(s), 12)] }

// runLiveMixed: a fixed-rate NMEA feed into an engine with WAL and
// checkpoints on, beside a fixed-rate query mix over the live snapshot;
// then Close, and a cold start over the run's checkpoint and WAL that
// must reach the same snapshot.
func runLiveMixed(p *phaseCtx) error {
	a, err := p.cache.archive(p.sz.Live, p.o.Seed)
	if err != nil {
		return err
	}
	p.res.Inputs = *a
	data, err := os.ReadFile(a.Path)
	if err != nil {
		return err
	}
	offs := lineOffsets(data)
	posLine, err := positionLines(data)
	if err != nil {
		return err
	}
	dir := filepath.Join(p.base, "work", "live-mixed")
	rep, err := p.setups(Cmd{Op: "setup", Workload: "live-mixed", Dir: dir,
		TickMs: p.sz.LiveTickMs, Ckpt: p.sz.LiveCkpt, Trace: p.rec != nil})
	if err != nil {
		return err
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	conn, err := net.Dial("tcp", rep.FeedAddr)
	if err != nil {
		return err
	}
	defer conn.Close()

	if err := p.begin(); err != nil {
		return err
	}
	dur := time.Duration(p.o.Seconds * float64(time.Second))
	rate := p.sz.LiveLines
	var wg sync.WaitGroup
	var samples []Sample
	wg.Add(1)
	go func() {
		defer wg.Done()
		samples = openLoop(client, "http://"+rep.HTTPAddr, 1, p.sz.LiveQPS, dur, newQueryMix(p.o.Seed), 0, p.rec)
	}()
	t0 := time.Now()
	sent, lateMs, ferr := feedAtRate(conn, data, offs, rate, t0, dur, p.rec)
	wg.Wait()
	p.res.Attempted++ // the feed itself
	if ferr != nil {
		p.res.Failed++
		p.res.fail("feed write: %v", ferr)
	}
	if err := p.end(); err != nil {
		return err
	}
	conn.Close()
	stop, err := p.sut.call(Cmd{Op: "stop", Dir: dir})
	if err != nil {
		p.res.fail("recovery: %v", err)
	}
	qs := summarize(samples)
	p.res.Attempted += qs.Attempted
	p.res.Failed += qs.Failed
	if qs.Failed > 0 {
		p.res.fail("%d of %d queries failed", qs.Failed, qs.Attempted)
	}
	l := stop.Live
	if l == nil {
		return nil
	}
	p.res.SUT.HeapMB = l.HeapMB
	// The live inventory's shape is whatever the fed part of the archive
	// built; record it with the inputs.
	p.res.Inputs.Trips, p.res.Inputs.Groups = l.Stats.Trips, int64(l.Groups)

	// Freshness: each swap's time minus the due time of the newest
	// position it includes (its RawRecords-th).
	var fresh []float64
	var visibleRate float64
	for _, sw := range l.Swaps {
		k := sw[1]
		if k <= 0 || int(k) > len(posLine) {
			continue
		}
		due := t0.Add(time.Duration(float64(posLine[k-1]) / rate * float64(time.Second)))
		fresh = append(fresh, float64(sw[0]-due.UnixNano())/1e6)
		if el := time.Duration(sw[0] - t0.UnixNano()).Seconds(); el > 0 {
			visibleRate = float64(k) / el
		}
	}
	if len(fresh) == 0 {
		p.res.fail("only %d snapshot swaps observed", len(fresh))
	}
	p50, p99 := Quantile(qs.LatMs, 0.5), Quantile(qs.LatMs, 0.99)
	p.res.E2E["throughput_per_s"] = Metric{visibleRate, "1/s"}
	p.res.E2E["latency_ms"] = Metric{p50, "ms"}
	p.res.named("query_p50_ms", "ms", p50)
	p.res.named("query_p99_ms", "ms", p99)
	p.res.named("freshness_p50_ms", "ms", Quantile(fresh, 0.5))
	p.res.named("freshness_p90_ms", "ms", Quantile(fresh, 0.9))
	p.res.named("checkpoint_s", "s", Median(l.CheckpointS))
	p.res.Detail["lines_sent"] = sent
	p.res.Detail["line_rate"] = rate
	p.res.Detail["query_rate"] = p.sz.LiveQPS
	p.res.Detail["swaps"] = len(l.Swaps)
	p.res.Detail["query_tail"] = TailQuantile(qs.LatMs)
	p.res.Detail["lateness_p50_ms"] = Quantile(qs.LateMs, 0.5)
	p.res.Detail["queue_wait_p50_ms"] = Quantile(qs.QueueMs, 0.5)
	p.res.Detail["freshness_tail"] = TailQuantile(fresh)
	p.res.Detail["checkpoint_s_all"] = l.CheckpointS
	p.res.Detail["recovery_s"] = l.RecoveryS

	st := l.Stats
	p.layer("ingest.publishes", float64(len(l.Swaps)))
	var gaps []float64
	for i := 1; i < len(l.Swaps); i++ {
		gaps = append(gaps, float64(l.Swaps[i][0]-l.Swaps[i-1][0])/1e6)
	}
	p.layer("ingest.publish_interval_ms", Median(gaps))
	p.layer("ingest.merge_avg_ms", float64(st.AvgMergeMicros)/1e3)
	p.layer("ingest.queue_depth_max", float64(l.QueueMax))
	p.layer("ingest.journal_bytes", float64(st.JournalBytes))
	p.layer("ingest.positions", float64(st.PositionsSeen))
	p.layer("ingest.accepted", float64(st.Accepted))
	p.layer("ingest.rejected", float64(st.Rejected))
	p.layer("ingest.trips", float64(st.Trips))
	p.layer("ingest.observations", float64(st.Observations))
	p.layer("feed.lateness_p99_ms", Quantile(lateMs, 0.99))
	p.layer("checkpoint.generations", float64(l.Generations))
	for _, k := range ckptKinds {
		p.layer("checkpoint.bytes."+k, float64(l.CkptBytes[k]))
	}
	p.layer("ingest.recovery_s", l.RecoveryS)
	p.layer("inventory.groups", float64(l.Groups))
	p.layer("http.queue_wait_p99_ms", Quantile(qs.QueueMs, 0.99))
	p.layer("http.lateness_p99_ms", Quantile(qs.LateMs, 0.99))
	return nil
}

// feedAtRate sends the archive's lines at a fixed line rate from t0 for
// dur (or until the archive ends): each pass writes every line due by
// now in one batch. It returns the lines sent and each batch's lateness
// (send time minus its first line's due time).
func feedAtRate(conn net.Conn, data []byte, offs []int, rate float64, t0 time.Time, dur time.Duration, rec *recorder) (int, []float64, error) {
	var late []float64
	sent := 0
	for sent < len(offs) {
		due := t0.Add(time.Duration(float64(sent) / rate * float64(time.Second)))
		if due.Sub(t0) >= dur {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		late = append(late, float64(now.Sub(due))/1e6)
		n := min(int(float64(now.Sub(t0))/float64(time.Second)*rate)+1, len(offs), int(dur.Seconds()*rate))
		n = max(n, sent+1)
		end := len(data)
		if n < len(offs) {
			end = offs[n]
		}
		sp := rec.Start("feed.batch", trace.SpanContext{})
		_, err := conn.Write(data[offs[sent]:end])
		sp.End()
		if err != nil {
			return sent, late, err
		}
		sent = n
	}
	return sent, late, nil
}
