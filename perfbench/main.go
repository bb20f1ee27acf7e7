// Command perfbench runs one repetition of a benchmark workload in a fresh
// process, checks every run's report against the committed digests in
// expected.json, and prints one JSON line with the operations attempted and
// failed, the set-up and simulation times, and, when traced, the per-layer
// metrics. run.py drives it; see README.md.
//
//	perfbench -workload fig8a -seed 1 -dir .bench_build/work
//	perfbench -workload chaos -seed 1 -dir .bench_build/work -trace
//	perfbench -workload stream-file -seed 1 -dir .bench_build/work -record expected.json
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"bitcoinng/internal/experiment"
)

//go:embed expected.json
var expectedJSON []byte

// expectations are the committed outputs the benchmark checks against.
type expectations struct {
	// KnownDefects names operations that are expected to fail, with the
	// reason. They still count as failed; they do not make a repetition
	// incorrect.
	KnownDefects map[string]string `json:"known_defects"`
	// Digests maps an operation name to the SHA-256 of its chaos.Digest.
	// Operations without an entry are checked by verdict only.
	Digests map[string]string `json:"digests"`
}

// repReport is the JSON line a repetition prints.
type repReport struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Attempted int    `json:"attempted"`
	// Failures lists each failed operation with its reason.
	Failures []string `json:"failures"`
	// Unexpected counts failures of operations not listed as known defects.
	Unexpected int `json:"unexpected"`
	// SetupS is input generation plus, summed over every run, the host time
	// of experiment.Run outside Result.WallTime: assembly and teardown.
	SetupS float64 `json:"setup_s"`
	// SimS and SimWallS sum Result.SimTime and Result.WallTime.
	SimS     float64 `json:"sim_s"`
	SimWallS float64 `json:"sim_wall_s"`
	// ProbeS is the speed probe's median: CPU seconds per unit of fixed
	// work while the repetition ran.
	ProbeS float64           `json:"probe_s"`
	Env    map[string]string `json:"env"`
	Layers map[string]metric `json:"layers,omitempty"`
}

func main() {
	var (
		name   = flag.String("workload", "", "workload: fig8a | chaos | stream-file")
		seed   = flag.Int64("seed", 1, "workload seed")
		dir    = flag.String("dir", "", "existing directory for the repetition's files (required)")
		traced = flag.Bool("trace", false, "profile the CPU and time invariants, scenario steps and runs")
		record = flag.String("record", "", "merge this repetition's digests into the given expectations file")
	)
	flag.Parse()
	rep, digests, err := runRep(*name, *seed, *dir, *traced)
	if err == nil && *record != "" {
		err = recordDigests(*record, digests)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// runRep runs every operation of one repetition and checks its outputs. It
// returns the digests it computed, by operation name.
func runRep(name string, seed int64, dir string, traced bool) (*repReport, map[string]string, error) {
	wl, err := lookupWorkload(name)
	if err != nil {
		return nil, nil, err
	}
	var exp expectations
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return nil, nil, fmt.Errorf("expected.json: %w", err)
	}
	if dir == "" {
		return nil, nil, errors.New("-dir is required")
	}
	work, err := os.MkdirTemp(dir, "rep-")
	if err != nil {
		return nil, nil, fmt.Errorf("work directory: %w", err)
	}
	defer os.RemoveAll(work)

	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, nil, err
		}
	}
	start := time.Now()
	ops, err := wl.plan(seed, work)
	if err != nil {
		if traced {
			pprof.StopCPUProfile()
		}
		return nil, nil, err
	}
	setup := time.Since(start)
	probe := startProbe()

	rep := &repReport{Workload: name, Seed: seed, Attempted: len(ops), Failures: []string{}, Env: envRecord(work)}
	tr := newTracer()
	spans := make([]runSpan, 0, len(ops))
	digests := map[string]string{}
	var sim, simWall time.Duration
	for _, o := range ops {
		cfg := o.cfg
		if traced {
			cfg = tr.instrument(cfg)
		}
		t0 := time.Now()
		res, err := experiment.Run(cfg)
		total := time.Since(t0)
		spans = append(spans, runSpan{total: total, res: res})
		if err == nil {
			setup += total - res.WallTime
			sim += res.SimTime
			simWall += res.WallTime
			digests[o.name] = digestOf(res)
		}
		if ferr := check(o, res, err, digests[o.name], exp); ferr != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %v", o.name, ferr))
			if _, known := exp.KnownDefects[o.name]; !known {
				rep.Unexpected++
			}
		}
	}
	rep.ProbeS = probe.finish().Seconds()
	if traced {
		pprof.StopCPUProfile()
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, nil, err
		}
		rep.Layers = layerMetrics(spans, tr, attribute(samples))
	}
	rep.SetupS = setup.Seconds()
	rep.SimS = sim.Seconds()
	rep.SimWallS = simWall.Seconds()
	return rep, digests, nil
}

// check decides whether one operation failed: a run error, a failed
// verdict (scenario-step error, invariant violation, missing output), or a
// digest that differs from the committed one.
func check(o op, res *experiment.Result, runErr error, digest string, exp expectations) error {
	if runErr != nil {
		return fmt.Errorf("run error: %w", runErr)
	}
	if err := o.verdict(res); err != nil {
		return err
	}
	if want, ok := exp.Digests[o.name]; ok {
		if digest != want {
			return fmt.Errorf("digest %.12s differs from committed %.12s", digest, want)
		}
	}
	return nil
}

// recordDigests merges digests into the expectations file at path.
func recordDigests(path string, digests map[string]string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var exp expectations
	if err := json.Unmarshal(raw, &exp); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if exp.Digests == nil {
		exp.Digests = map[string]string{}
	}
	for k, v := range digests {
		exp.Digests[k] = v
	}
	out, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// envRecord describes the process the repetition ran in.
func envRecord(work string) map[string]string {
	return map[string]string{
		"go":         runtime.Version(),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"num_cpu":    fmt.Sprint(runtime.NumCPU()),
		"work_dir":   work,
		"work_fs":    fsType(work),
	}
}

// fsType names the filesystem holding path; the stream-file stores live
// there, so fsync cost depends on it.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	names := map[int64]string{
		0x01021994: "tmpfs", 0xEF53: "ext4", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683e: "btrfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
