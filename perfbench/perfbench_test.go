package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"bitcoinng/internal/chaos"
	"bitcoinng/internal/experiment"
)

// TestAttributeFixture pins the profile attribution rules on hand-built
// stacks: self time goes to the innermost module frame, inclusive time once
// to every module on the stack, and background GC workers to gc alone.
func TestAttributeFixture(t *testing.T) {
	ms := time.Millisecond
	got := attribute([]stackSample{
		{frames: []string{
			"crypto/ed25519.Verify",
			"bitcoinng/internal/crypto.Verify",
			"bitcoinng/internal/validate.(*Cache).Connect",
			"bitcoinng/internal/crypto.(*PublicKey).Verify.func1", // crypto again, further out
			"bitcoinng/internal/chain.(*State).AddBlock",
		}, cpu: 10 * ms},
		{frames: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, cpu: 20 * ms},
		{frames: []string{
			"runtime.mallocgc",
			"bitcoinng/internal/utxo.(*Set).RedoBlock",
			"bitcoinng/internal/chain.(*State).connect",
		}, cpu: 5 * ms},
		{frames: []string{"syscall.Syscall", "os.(*File).Write"}, cpu: 3 * ms},
	})
	want := attribution{
		self:  map[string]time.Duration{"crypto": 10 * ms, "utxo": 5 * ms},
		incl:  map[string]time.Duration{"crypto": 10 * ms, "validate": 10 * ms, "chain": 15 * ms, "utxo": 5 * ms},
		gc:    20 * ms,
		total: 38 * ms,
	}
	if got.gc != want.gc || got.total != want.total {
		t.Errorf("gc %v total %v, want %v %v", got.gc, got.total, want.gc, want.total)
	}
	for name, pair := range map[string][2]map[string]time.Duration{
		"self": {got.self, want.self}, "incl": {got.incl, want.incl},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Errorf("%s = %v, want %v", name, pair[0], pair[1])
		}
		for mod, d := range pair[1] {
			if pair[0][mod] != d {
				t.Errorf("%s[%s] = %v, want %v", name, mod, pair[0][mod], d)
			}
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"bitcoinng/internal/utxo.(*Set).RedoBlock":          "utxo",
		"bitcoinng/internal/experiment.(*runner).run.func1": "experiment",
		"bitcoinng/internal/lint/analyzers.Run":             "lint",
		"bitcoinng/perfbench.main":                          "",
		"crypto/ed25519.Verify":                             "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

// TestParseProfile decodes a real runtime/pprof CPU profile.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var inSpin time.Duration
	for _, s := range samples {
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".spin") {
				inSpin += s.cpu
				break
			}
		}
	}
	if inSpin < 100*time.Millisecond {
		t.Errorf("profile charges %v to spin over %d samples, want most of 300ms", inSpin, len(samples))
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed without error")
	}
}

// TestDecoratorTransparency checks that tracing wraps invariants and
// scenario steps without changing any report: a chaos seed with crash and
// restart phases, and a shortened stream-file run, digest identically with
// and without the tracer.
func TestDecoratorTransparency(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	gen := chaos.Generate(chaos.GenConfig{}, 5) // partitions, spikes, two crash/restart waves
	gen.Cfg.Parallelism = 1
	stream, err := planStreamFile(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	short := stream[0].cfg
	short.MaxSimTime = 3 * time.Minute

	for _, tc := range []struct {
		name string
		cfg  experiment.Config
	}{{"chaos/5", gen.Cfg}, {"stream-file short", short}} {
		plain, err := experiment.Run(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		if tc.cfg.StoreURL != "" {
			tc.cfg.StoreURL = "file:" + t.TempDir()
		}
		traced, err := experiment.Run(tr.instrument(tc.cfg))
		if err != nil {
			t.Fatal(err)
		}
		if digestOf(plain) != digestOf(traced) {
			t.Errorf("%s: traced digest differs:\n%s\nvs\n%s", tc.name, chaos.Digest(plain), chaos.Digest(traced))
		}
		var checks int
		for _, st := range tr.checks {
			checks += st.checks
		}
		if checks == 0 {
			t.Errorf("%s: no invariant check was timed", tc.name)
		}
		if tc.cfg.Scenario != nil && (tr.steps != len(tc.cfg.Scenario.Steps) || tr.restarts == 0) {
			t.Errorf("%s: timed %d steps and %d restarts, want %d steps and some restarts",
				tc.name, tr.steps, tr.restarts, len(tc.cfg.Scenario.Steps))
		}
	}
}

// TestFig8aMatchesFigure checks that the workload's configurations are
// experiment.Figure8a's: at a small scale, both print the same table.
func TestFig8aMatchesFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	scale := experiment.Scale{Nodes: 12, Blocks: 4, Seed: 3, Parallelism: 1}
	points, err := experiment.Figure8a(scale, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	experiment.FprintFig8(&want, fig8aTitle, "freq[1/s]", points)

	var results []*experiment.Result
	for _, o := range fig8aOps(scale) {
		res, err := experiment.Run(o.cfg)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	if got := fig8aTable(results); got != want.String() {
		t.Errorf("table differs from Figure8a:\n%s\nwant:\n%s", got, want.String())
	}
}

// TestMetricNames checks every per-layer metric the traced run prints
// against BENCHMARK.json, and the shape of every declared name and unit.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	declared := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("bad or repeated metric %q unit %q", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	for _, m := range spec.PerLayer {
		declared[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}

	printed := layerMetrics(nil, newTracer(), attribute(nil))
	printed["trace.overhead_s"] = metric{Unit: "s"} // added by run.py
	for n, m := range printed {
		if u, ok := declared[n]; !ok || u != m.Unit {
			t.Errorf("printed %s [%s], BENCHMARK.json has %q", n, m.Unit, u)
		}
	}
	for n := range declared {
		if _, ok := printed[n]; !ok {
			t.Errorf("BENCHMARK.json declares %s, which the traced run does not print", n)
		}
	}
}

// TestExpectations checks the committed digests parse and cover every
// chaos seed, and that the known defects name real operations.
func TestExpectations(t *testing.T) {
	var exp expectations
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		t.Fatal(err)
	}
	ops, err := planChaos(1, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ops {
		if _, ok := exp.Digests[o.name]; !ok {
			t.Errorf("no digest committed for %s", o.name)
		}
	}
	for name := range exp.KnownDefects {
		if _, ok := exp.Digests[name]; !ok {
			t.Errorf("known defect %s is not a committed operation", name)
		}
	}
}

// fig8aTitle is the title ngbench prints above Figure 8a.
const fig8aTitle = "Figure 8a — frequency sweep at constant payload throughput"

// fig8aTable renders the figure from its runs as ngbench prints it.
func fig8aTable(results []*experiment.Result) string {
	points := make([]experiment.Fig8Point, len(fig8aFreqs))
	for i, f := range fig8aFreqs {
		points[i] = experiment.Fig8Point{X: f, Bitcoin: results[2*i].Report, NG: results[2*i+1].Report}
	}
	var b strings.Builder
	experiment.FprintFig8(&b, fig8aTitle, "freq[1/s]", points)
	return b.String()
}
