package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"expresspass/internal/sim"
)

func tinyConfig(t *testing.T, seed uint64) passConfig {
	return passConfig{seed: seed, tiny: true, tmpDir: t.TempDir()}
}

// Each workload, run twice at a tiny size, repeats its digest and every
// digested count exactly.
func TestWorkloadsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			pc := tinyConfig(t, 7)
			a, err := w.runPass(pc)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.runPass(pc)
			if err != nil {
				t.Fatal(err)
			}
			if a.stats.finished != a.stats.flows || a.stats.flows == 0 {
				t.Fatalf("finished %d of %d flows", a.stats.finished, a.stats.flows)
			}
			if a.digest != b.digest || a.stats.canonical() != b.stats.canonical() {
				t.Fatalf("passes differ:\n%s\n%s", a.stats.canonical(), b.stats.canonical())
			}
			if w.jsonl && (a.stats.traceRecords == 0 || a.stats.traceBytes == 0) {
				t.Fatalf("traced workload wrote %d records, %d bytes", a.stats.traceRecords, a.stats.traceBytes)
			}
		})
	}
}

// The two websearch workloads run exactly the same flow list.
func TestDCTCPRunsTheWebSearchFlowList(t *testing.T) {
	xp, _ := workloadByName("xp-websearch")
	dc, _ := workloadByName("dctcp-websearch")
	a, err := xp.setup(tinyConfig(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := dc.setup(tinyConfig(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.specs) != len(b.specs) {
		t.Fatalf("%d vs %d flows", len(a.specs), len(b.specs))
	}
	for i := range a.specs {
		if a.specs[i] != b.specs[i] {
			t.Fatalf("flow %d: %+v vs %+v", i, a.specs[i], b.specs[i])
		}
	}
}

type benchmarkFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name, Unit string
}

// Both modes print exactly the metrics BENCHMARK.json declares, each
// with a well-formed name and its declared unit, and count every flow
// of every pass as attempted.
func TestPrintedMetricsMatchDeclaration(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("xp-shuffle-traced")
	pc := tinyConfig(t, 11)
	timed, err := timedRun(w, pc, 0)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := tracedRun(w, pc)
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.setup(pc)
	if err != nil {
		t.Fatal(err)
	}
	in.discard()
	flows := len(in.specs)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, c := range []struct {
		res    result
		want   []benchMetric
		passes int
	}{{timed, bf.EndToEnd, 2 + minPasses}, {traced, bf.PerLayer, 3}} {
		if c.res.failed != 0 || c.res.attempted != c.passes*flows {
			t.Errorf("attempted %d failed %d, want %d×%d attempted and none failed", c.res.attempted, c.res.failed, c.passes, flows)
		}
		if len(c.res.metrics) != len(c.want) {
			t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(c.res.metrics), len(c.want))
		}
		for _, m := range c.want {
			got, ok := c.res.metrics[m.Name]
			if !ok || got.Unit != m.Unit || !name.MatchString(m.Name) || m.Unit == "" {
				t.Errorf("metric %q: printed %+v (present %v), declared unit %q", m.Name, got, ok, m.Unit)
			}
		}
		var out struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]metric
		}
		if err := json.Unmarshal([]byte(c.res.line()), &out); err != nil || !out.Correct || len(out.Metrics) != len(c.want) {
			t.Errorf("result line %s does not round-trip: %v", c.res.line(), err)
		}
	}
}

// A digest that does not match fails every flow of the pass; a flow
// unfinished at the deadline fails on its own.
func TestFailuresCountAsFailedFlows(t *testing.T) {
	w, _ := workloadByName("xp-websearch")
	pc := tinyConfig(t, 5)
	p, err := w.runPass(pc)
	if err != nil {
		t.Fatal(err)
	}

	res := result{}
	chk := &checker{want: "0123456789abcdef0123456789abcdef", res: &res}
	chk.check("mismatch", p, false)
	if res.attempted != p.stats.flows || res.failed != p.stats.flows {
		t.Fatalf("digest mismatch: attempted %d failed %d, want %d and %d", res.attempted, res.failed, p.stats.flows, p.stats.flows)
	}

	pc.deadline = 200 * sim.Microsecond
	late, err := w.runPass(pc)
	if err != nil {
		t.Fatal(err)
	}
	res = result{}
	chk = &checker{want: late.digest, res: &res}
	chk.check("deadline", late, false)
	if unfinished := late.stats.flows - late.stats.finished; unfinished == 0 || res.failed != unfinished {
		t.Fatalf("deadline miss: %d unfinished, %d failed", unfinished, res.failed)
	}

	res = result{}
	chk = &checker{want: p.digest, res: &res}
	chk.check("armed", p, true)
	if res.failed != p.stats.flows {
		t.Fatalf("invariant violation: failed %d, want %d", res.failed, p.stats.flows)
	}
}

// The CPU-profile attribution maps frames to layers.
func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"expresspass/internal/sim.(*Engine).Step":      "sim",
		"expresspass/internal/dctcp.(*CC).OnAck":       "transport",
		"expresspass/internal/packet.Get":              "",
		"expresspass/internal/obs.(*JSONLSink).Record": "obs",
		"strconv.AppendFloat":                          "",
		"expresspass/internal/lifecycle.managerReap":   "lifecycle",
		"expresspass/internal/netem.portArrive.func1":  "netem",
		"expresspass/internal/core.receiverSendCredit": "core",
		"expresspass/internal/transport.(*Conn).onAck": "transport",
		"expresspass/xpbench.(*flowHandle).Retire":     "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// A run's time is its wall time less the steal over every vCPU, but
// never less than its CPU time: when both vCPUs are stolen half the
// time, the steal summed over them equals the wall time.
func TestRunTimeSubtractsSteal(t *testing.T) {
	const stat = `cpu  916312 0 35960 1305479 319 0 13589 300 0 0
cpu0 384729 0 17105 726621 214 0 6896 100 0 0
cpu1 531583 0 18854 578857 105 0 6692 200 0 0
intr 13810587 0 0 0
`
	if got := parseSteal(stat); got != 3*time.Second {
		t.Fatalf("parseSteal = %v, want 3s", got)
	}
	if got := parseSteal("cpu  1 2 3 4\nintr 5\n"); got != 0 {
		t.Fatalf("no steal column: %v", got)
	}
	for _, c := range []struct{ wall, steal, cpu, want time.Duration }{
		{4 * time.Second, 0, 3900 * time.Millisecond, 4 * time.Second},                       // no steal: wall
		{4 * time.Second, 2 * time.Second, 2 * time.Second, 2 * time.Second},                 // steal on the run's vCPU
		{4 * time.Second, 4 * time.Second, 2 * time.Second, 2 * time.Second},                 // both vCPUs half stolen
		{4 * time.Second, 9 * time.Second, 1500 * time.Millisecond, 1500 * time.Millisecond}, // never below cpu
		{4 * time.Second, 1 * time.Second, 2 * time.Second, 3 * time.Second},                 // some waiting in the guest
	} {
		if got := runTime(c.wall, c.steal, c.cpu); got != c.want {
			t.Errorf("runTime(%v, %v, %v) = %v, want %v", c.wall, c.steal, c.cpu, got, c.want)
		}
	}
}

// Each stack of `go tool pprof -traces` output goes to the layer of
// its innermost layer frame, or to runtime when it has none.
func TestParseTraces(t *testing.T) {
	const text = `File: xpbench
Type: cpu
Duration: 3s, Total samples = 2.50s (83.33%)
-----------+-------------------------------------------------------
     1.50s   strconv.AppendFloat
             expresspass/internal/obs.(*JSONLSink).Record
             expresspass/internal/netem.(*Port).Send (inline)
             expresspass/internal/sim.(*Engine).Step
-----------+-------------------------------------------------------
     500ms   expresspass/internal/sim.(*Engine).Step
             main.main
-----------+-------------------------------------------------------
     500ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	got, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"obs": 0.6, "sim": 0.2, "runtime": 0.2}
	for l, w := range want {
		if d := got[l] - w; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s share %v, want %v (all %v)", l, got[l], w, got)
		}
	}
	if _, err := parseTraces("-----\n  12 parsecs   main.main\n"); err == nil {
		t.Error("a malformed time parsed")
	}
}

// The heap pass runs the engine in slices of simulated time and still
// simulates exactly what an unsliced pass does.
func TestHeapPassMatchesPlainPass(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			pc := tinyConfig(t, 9)
			a, err := w.runPass(pc)
			if err != nil {
				t.Fatal(err)
			}
			pc.heap = &heapProbe{end: a.end}
			b, err := w.runPass(pc)
			if err != nil {
				t.Fatal(err)
			}
			if a.end == 0 || pc.heap.peak == 0 || a.digest != b.digest {
				t.Fatalf("end %v, peak %d, digests %s vs %s", a.end, pc.heap.peak, a.digest, b.digest)
			}
		})
	}
}
