package main

import (
	"runtime"
	"time"

	"bitcoinng/internal/experiment"
	"bitcoinng/internal/invariant"
	"bitcoinng/internal/scenario"
	"bitcoinng/internal/validate"
)

// invariantNames is the default catalogue, in its order; every name gets a
// check_s metric so each workload prints the same set.
var invariantNames = []string{
	"value-conservation", "fee-split", "single-leader", "fork-bound",
	"partition-consistency", "convergence", "durable-prefix", "resync-convergence",
}

// tracer times the calls the runner makes into invariants and scenario
// steps, by wrapping them before a configuration reaches experiment.Run.
// The wrappers forward every call unchanged, so reports stay identical.
type tracer struct {
	checks      map[string]*invStat
	steps       int
	stepTime    time.Duration
	restarts    int
	restartTime time.Duration
	stepErrors  int
}

type invStat struct {
	checks int
	time   time.Duration
}

func newTracer() *tracer { return &tracer{checks: map[string]*invStat{}} }

// instrument returns cfg with its invariants and scenario steps wrapped.
func (t *tracer) instrument(cfg experiment.Config) experiment.Config {
	if len(cfg.Invariants) > 0 {
		wrapped := make([]invariant.Invariant, len(cfg.Invariants))
		for i, inv := range cfg.Invariants {
			st := t.checks[inv.Name()]
			if st == nil {
				st = &invStat{}
				t.checks[inv.Name()] = st
			}
			wrapped[i] = timedInvariant{inner: inv, stat: st}
		}
		cfg.Invariants = wrapped
	}
	if cfg.Scenario != nil {
		sc := scenario.New()
		for _, ts := range cfg.Scenario.Steps {
			step := ts.Step
			inner := step.Do
			step.Do = func(rt scenario.Runtime) error {
				start := time.Now()
				err := inner(rt)
				d := time.Since(start)
				t.steps++
				t.stepTime += d
				if step.Name == "restart" {
					t.restarts++
					t.restartTime += d
				}
				if err != nil {
					t.stepErrors++
				}
				return err
			}
			sc.Add(scenario.At(ts.Offset, step))
		}
		cfg.Scenario = sc
	}
	return cfg
}

type timedInvariant struct {
	inner invariant.Invariant
	stat  *invStat
}

func (t timedInvariant) Name() string { return t.inner.Name() }

func (t timedInvariant) Check(s *invariant.Snapshot, report func(node int, msg string)) {
	start := time.Now()
	t.inner.Check(s, report)
	t.stat.time += time.Since(start)
	t.stat.checks++
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runSpan is the host-time split of one experiment.Run.
type runSpan struct {
	total time.Duration // the whole call: assembly, simulation, teardown
	res   *experiment.Result
}

// layerMetrics derives the per-layer metrics of a traced repetition from
// its run spans, the tracer's decorators, the CPU profile and the
// process-wide counters.
func layerMetrics(spans []runSpan, t *tracer, prof attribution) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	sec := func(d time.Duration) float64 { return d.Seconds() }

	var build, simulate time.Duration
	var events, msgs, bytes, lost uint64
	var admitted, confirmed int64
	var violations int
	store := map[string]float64{}
	for _, s := range spans {
		if s.res == nil {
			continue
		}
		r := s.res
		build += s.total - r.WallTime
		simulate += r.WallTime
		events += r.Events
		msgs += r.NetStats.MessagesSent
		bytes += r.NetStats.BytesSent
		lost += r.NetStats.MessagesLost + r.NetStats.MessagesDropped
		if r.Load != nil {
			admitted += r.Load.Admitted
			confirmed += r.Load.Confirmed
		}
		violations += len(r.InvariantViolations)
		for _, st := range r.StoreStats {
			store[st.Name] += st.Last
		}
	}
	put("experiment.runs", float64(len(spans)), "count")
	put("experiment.build_s", sec(build), "s")
	put("experiment.simulate_s", sec(simulate), "s")

	put("sim.events", float64(events), "count")
	put("sim.events_per_s", ratio(float64(events), sec(simulate)), "1/s")
	put("simnet.messages", float64(msgs), "count")
	put("simnet.mb_sent", float64(bytes)/1e6, "MB")
	put("simnet.lost", float64(lost), "count")

	put("load.admitted", float64(admitted), "count")
	put("load.confirmed", float64(confirmed), "count")
	put("load.confirm_ratio", ratio(float64(confirmed), float64(admitted)), "ratio")

	vs := validate.Shared().Stats()
	put("validate.cache_hits", float64(vs.Hits), "count")
	put("validate.cache_misses", float64(vs.Misses), "count")
	put("validate.cache_hit_ratio", vs.HitRate(), "ratio")

	put("store.gets", store["store-gets"], "count")
	put("store.puts", store["store-puts"], "count")
	put("store.deletes", store["store-deletes"], "count")
	put("store.page_reads", store["store-page-reads"], "count")
	put("store.page_writes", store["store-page-writes"], "count")
	put("store.cache_hit_ratio", ratio(store["store-cache-hits"],
		store["store-cache-hits"]+store["store-cache-misses"]), "ratio")
	put("store.journal_mb", store["store-journal-bytes"]/1e6, "MB")
	put("store.checkpoints", store["store-checkpoints"], "count")

	var checks int
	var checkTime time.Duration
	for _, name := range invariantNames {
		st := t.checks[name]
		if st == nil {
			st = &invStat{}
		}
		checks += st.checks
		checkTime += st.time
		put("invariant."+name+".check_s", sec(st.time), "s")
	}
	put("invariant.checks", float64(checks), "count")
	put("invariant.check_s", sec(checkTime), "s")
	put("invariant.violations", float64(violations), "count")

	put("scenario.steps", float64(t.steps), "count")
	put("scenario.step_s", sec(t.stepTime), "s")
	put("scenario.restarts", float64(t.restarts), "count")
	put("scenario.restart_s", sec(t.restartTime), "s")
	put("scenario.errors", float64(t.stepErrors), "count")

	for _, mod := range []string{"sim", "simnet", "crypto", "types", "wire", "chain", "utxo",
		"node", "core", "bitcoin", "mempool", "store", "blockstore", "metrics"} {
		put(mod+".self_s", sec(prof.self[mod]), "s")
	}
	for _, mod := range []string{"load", "validate", "chain", "store"} {
		put(mod+".incl_s", sec(prof.incl[mod]), "s")
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	put("runtime.gc_s", sec(prof.gc), "s")
	put("runtime.gc_cycles", float64(ms.NumGC), "count")
	put("runtime.gc_pause_s", sec(time.Duration(ms.PauseTotalNs)), "s")
	put("runtime.alloc_mb", float64(ms.TotalAlloc)/1e6, "MB")
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
