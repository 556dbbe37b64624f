package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// Test metrics registered once for the whole package test binary.
var (
	tcA = NewCounter("test_alpha_total", "first test counter")
	tcB = NewCounter("test_beta_total", "second test counter")
	thA = NewHistogram("test_gamma_steps", "test histogram", []int64{10, 100, 1000})
)

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate counter registration did not panic")
		}
	}()
	NewCounter("test_alpha_total", "dup")
}

func TestDuplicateHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("histogram name clashing with a counter did not panic")
		}
	}()
	NewHistogram("test_beta_total", "dup", []int64{1})
}

func TestBadBucketsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing buckets did not panic")
		}
	}()
	NewHistogram("test_bad_buckets", "dup", []int64{5, 5})
}

func TestNilTrackerNoOps(t *testing.T) {
	var tr *Tracker
	tr.Add(tcA, 3) // must not panic
	tr.Inc(tcA)
	tr.Observe(thA, 7)
	tr.Merge(Snapshot{Counters: map[string]int64{"test_alpha_total": 1}})
	s := tr.Snapshot()
	if len(s.Counters) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil tracker snapshot not empty: %+v", s)
	}
}

func TestNilCounterNoOps(t *testing.T) {
	tr := NewTracker()
	tr.Add(nil, 3)
	tr.Inc(nil)
	tr.Observe(nil, 1)
	if s := tr.Snapshot(); len(s.Counters) != 0 {
		t.Fatalf("nil-counter add recorded something: %+v", s)
	}
}

// TestSnapshotDeterminism: the same recorded work, in any order and
// split across any number of trackers merged in any grouping, yields
// deeply equal snapshots.
func TestSnapshotDeterminism(t *testing.T) {
	one := NewTracker()
	one.Add(tcA, 5)
	one.Add(tcB, 2)
	one.Observe(thA, 50)
	one.Observe(thA, 5000)

	// Same totals, different order, via a merge of two trackers.
	p1, p2 := NewTracker(), NewTracker()
	p2.Observe(thA, 5000)
	p2.Add(tcB, 2)
	p1.Add(tcA, 1)
	p1.Observe(thA, 50)
	p1.Add(tcA, 4)
	merged := NewTracker()
	merged.Merge(p2.Snapshot())
	merged.Merge(p1.Snapshot())

	a, b := one.Snapshot(), merged.Snapshot()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ:\n%+v\n%+v", a, b)
	}

	// And the rendered bytes are identical too.
	var bufA, bufB bytes.Buffer
	if err := WritePrometheus(&bufA, a); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&bufB, b); err != nil {
		t.Fatal(err)
	}
	if bufA.String() != bufB.String() {
		t.Fatalf("renderings differ:\n%s\n%s", bufA.String(), bufB.String())
	}
}

func TestDiff(t *testing.T) {
	tr := NewTracker()
	tr.Add(tcA, 4)
	tr.Add(tcB, 1)
	d := tr.Delta()
	if d.Counter(tcA) != 4 || d.Counter(tcB) != 1 {
		t.Fatalf("bad delta: %v", d.Map())
	}
	// A counter the tracker never moved stays out of its delta.
	only := NewTracker()
	only.Add(tcB, 1)
	if m := only.Delta().Map(); len(m) != 1 {
		t.Fatalf("delta carries zero entries: %v", m)
	}
	if d := NewTracker().Delta(); d != "" {
		t.Fatalf("delta of no work: %v", d.Map())
	}

	// The JSON form is keyed by name and round-trips to the same bytes;
	// unknown names and non-positive increments fail to decode.
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Delta
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Fatalf("round trip %s: got %v, want %v", data, back, d)
	}
	for _, bad := range []string{`{"no_such_metric_total":1}`, `{"test_alpha_total":0}`, `{"test_alpha_total":-2}`} {
		if err := json.Unmarshal([]byte(bad), &back); err == nil {
			t.Errorf("decoded %s", bad)
		}
	}
	other := NewTracker()
	other.AddDelta(d)
	if s := other.Snapshot(); s.Counter("test_alpha_total") != 4 || s.Counter("test_beta_total") != 1 {
		t.Fatalf("AddDelta: %+v", s.Counters)
	}
}

func TestPrometheusFormat(t *testing.T) {
	tr := NewTracker()
	tr.Add(tcA, 7)
	tr.Observe(thA, 3)     // ≤10
	tr.Observe(thA, 400)   // ≤1000
	tr.Observe(thA, 99999) // +Inf
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE test_alpha_total counter",
		"test_alpha_total 7",
		"# TYPE test_gamma_steps histogram",
		`test_gamma_steps_bucket{le="10"} 1`,
		`test_gamma_steps_bucket{le="100"} 1`,
		`test_gamma_steps_bucket{le="1000"} 2`,
		`test_gamma_steps_bucket{le="+Inf"} 3`,
		"test_gamma_steps_sum 100402",
		"test_gamma_steps_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteSummary(t *testing.T) {
	tr := NewTracker()
	tr.Add(tcB, 42)
	tr.Observe(thA, 20)
	var buf bytes.Buffer
	if err := WriteSummary(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "test_beta_total") || !strings.Contains(out, "42") {
		t.Errorf("summary missing counter row:\n%s", out)
	}
	if !strings.Contains(out, "count=1 sum=20 mean=20") {
		t.Errorf("summary missing histogram row:\n%s", out)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(10, 10, 4)
	want := []int64{10, 100, 1000, 10000}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ExpBuckets = %v, want %v", got, want)
	}
}

func TestJSONLWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	w.Emit(map[string]int{"a": 1})
	w.Emit(map[string]int{"b": 2})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "{\"a\":1}\n{\"b\":2}\n" {
		t.Fatalf("bad JSONL output: %q", buf.String())
	}
	var nilW *JSONLWriter
	nilW.Emit(1) // must not panic
	if err := nilW.Close(); err != nil {
		t.Fatal(err)
	}
}
