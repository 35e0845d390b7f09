package naturalness

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

// A small hand-labeled sample in the spirit of the paper's Table 1.
var sample = []Labeled{
	{"airbag", Regular}, {"AdaptiveCruiseControl", Regular}, {"ModelYear", Regular},
	{"service_name", Regular}, {"Research_Staff", Regular}, {"species", Regular},
	{"vegetation_height", Regular}, {"water_temperature", Regular}, {"first_name", Regular},
	{"TotalAmount", Regular}, {"SchoolDistrict", Regular}, {"teacher_count", Regular},
	{"location_id", Regular}, {"CommonName", Regular}, {"observation_date", Regular},
	{"InvoiceNumber", Regular}, {"employee_salary", Regular}, {"vehicle_model", Regular},
	{"crash_severity", Regular}, {"enrollment_total", Regular},

	{"VegHeight", Low}, {"WaterTemp", Low}, {"SpecCode", Low}, {"LocID", Low},
	{"ObsDate", Low}, {"InvNum", Low}, {"EmpSalary", Low}, {"VehMdl", Low},
	{"tbl_MicroHabitat", Low}, {"Coord_Syst", Low}, {"RecvAsst", Low},
	{"IsueFrDate", Low}, {"AccountChk", Low}, {"UsrQuery", Low}, {"TeachCnt", Low},
	{"EnrollTot", Low}, {"SchDistrict", Low}, {"CrashSev", Low}, {"ObsrvrName", Low},
	{"ProtclNm", Low},

	{"VgHt", Least}, {"WtTp", Least}, {"SpCd", Least}, {"LcId", Least},
	{"ObDt", Least}, {"InNm", Least}, {"EmSl", Least}, {"VhMd", Least},
	{"AdCtTxIRWT", Least}, {"COGM_Act", Least}, {"DfltSlp", Least},
	{"FNDAbs", Least}, {"CSI22", Least}, {"JKWGT12", Least}, {"TcCt", Least},
	{"EnTt", Least}, {"ScDt", Least}, {"CrSv", Least}, {"EMSGCSEYE", Least},
	{"MT_RIVPACS_2011_OTU", Least},
}

func TestLevelString(t *testing.T) {
	if Regular.String() != "Regular" || Low.String() != "Low" || Least.String() != "Least" {
		t.Error("String names wrong")
	}
	if Regular.Label() != "N1" || Low.Label() != "N2" || Least.Label() != "N3" {
		t.Error("short labels wrong")
	}
}

func TestParseLevel(t *testing.T) {
	for _, l := range Levels {
		got, err := ParseLevel(l.String())
		if err != nil || got != l {
			t.Errorf("ParseLevel(%q) = %v, %v", l.String(), got, err)
		}
		got, err = ParseLevel(l.Label())
		if err != nil || got != l {
			t.Errorf("ParseLevel(%q) = %v, %v", l.Label(), got, err)
		}
	}
	if _, err := ParseLevel("bogus"); err == nil {
		t.Error("expected error for unknown level")
	}
}

func TestCombined(t *testing.T) {
	if got := Combined(10, 0, 0); got != 1.0 {
		t.Errorf("all Regular should be 1.0, got %v", got)
	}
	if got := Combined(0, 0, 10); got != 0.0 {
		t.Errorf("all Least should be 0.0, got %v", got)
	}
	if got := Combined(0, 10, 0); got != 0.5 {
		t.Errorf("all Low should be 0.5, got %v", got)
	}
	if got := Combined(0, 0, 0); got != 0 {
		t.Errorf("empty should be 0, got %v", got)
	}
}

func TestCombinedBounds(t *testing.T) {
	f := func(r, lo, le uint8) bool {
		v := Combined(int(r), int(lo), int(le))
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProportionsSumToOne(t *testing.T) {
	levels := []Level{Regular, Regular, Low, Least, Least, Least}
	r, lo, le := Proportions(levels)
	if s := r + lo + le; s < 0.999 || s > 1.001 {
		t.Errorf("proportions sum %v", s)
	}
	if r != 2.0/6 || lo != 1.0/6 || le != 3.0/6 {
		t.Errorf("wrong proportions: %v %v %v", r, lo, le)
	}
}

func TestHeuristicClassifierOrdering(t *testing.T) {
	h := NewHeuristicClassifier()
	if got := h.Classify("vegetation_height"); got != Regular {
		t.Errorf("vegetation_height -> %v, want Regular", got)
	}
	if got := h.Classify("ZZQXK"); got != Least {
		t.Errorf("ZZQXK -> %v, want Least", got)
	}
}

func TestSoftmaxTrainsAboveChance(t *testing.T) {
	cfg := DefaultTrainConfig()
	cfg.Epochs = 20
	c := TrainSoftmax("test-softmax", sample, true, cfg)
	rep := Score(c, sample)
	// On its own (small) training set the model should fit well above the
	// 1/3 chance level.
	if rep.Accuracy < 0.8 {
		t.Errorf("training accuracy too low: %+v", rep)
	}
}

func TestSoftmaxDeterministic(t *testing.T) {
	a := TrainSoftmax("a", sample, true, DefaultTrainConfig())
	b := TrainSoftmax("b", sample, true, DefaultTrainConfig())
	for _, ex := range sample {
		if a.Classify(ex.Identifier) != b.Classify(ex.Identifier) {
			t.Fatalf("training is not deterministic for %q", ex.Identifier)
		}
	}
}

// trainSoftmaxDense is the dense reference trainer: the SGD loop over full
// FeatureDim vectors that TrainSoftmax replaced with its sparse form. It is
// kept only as a differential oracle; both must produce bit-identical weights.
func trainSoftmaxDense(name string, examples []Labeled, tagging bool, cfg TrainConfig) *SoftmaxClassifier {
	c := &SoftmaxClassifier{
		name:  name,
		feats: &Featurizer{Tagging: tagging},
	}
	for i := range c.weights {
		c.weights[i] = make([]float64, FeatureDim+1)
	}
	X := make([][]float64, len(examples))
	y := make([]Level, len(examples))
	for i, ex := range examples {
		X[i] = c.feats.Features(ex.Identifier)
		y[i] = ex.Level
	}
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	rng := splitMix64(cfg.Seed)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		shuffle(order, &rng)
		lr := cfg.LearningRate / (1 + 0.3*float64(epoch))
		for _, i := range order {
			p := probsDense(c, X[i])
			for cls := range c.weights {
				grad := p[cls]
				if Level(cls) == y[i] {
					grad -= 1
				}
				w := c.weights[cls]
				for j, x := range X[i] {
					if x != 0 {
						w[j] -= lr * (grad*x + cfg.L2*w[j])
					}
				}
				w[FeatureDim] -= lr * grad // bias
			}
		}
	}
	return c
}

// probsDense is the dense reference for SoftmaxClassifier.probs.
func probsDense(c *SoftmaxClassifier, x []float64) [3]float64 {
	var z [3]float64
	for cls := range c.weights {
		w := c.weights[cls]
		s := w[FeatureDim]
		for j, v := range x {
			if v != 0 {
				s += w[j] * v
			}
		}
		z[cls] = s
	}
	maxZ := math.Max(z[0], math.Max(z[1], z[2]))
	var sum float64
	for i := range z {
		z[i] = math.Exp(z[i] - maxZ)
		sum += z[i]
	}
	for i := range z {
		z[i] /= sum
	}
	return z
}

// TestSoftmaxMatchesDenseOracle pins the sparse trainer to the dense one bit
// for bit: a reordered sum anywhere in training or scoring shows up here.
func TestSoftmaxMatchesDenseOracle(t *testing.T) {
	for _, tagging := range []bool{false, true} {
		for _, epochs := range []int{1, DefaultTrainConfig().Epochs} {
			cfg := DefaultTrainConfig()
			cfg.Epochs = epochs
			got := TrainSoftmax("sparse", sample, tagging, cfg)
			want := trainSoftmaxDense("dense", sample, tagging, cfg)
			for cls := range want.weights {
				for j, w := range want.weights[cls] {
					if g := got.weights[cls][j]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("tagging=%v epochs=%d: weight[%d][%d] = %v, dense oracle %v",
							tagging, epochs, cls, j, g, w)
					}
				}
			}
			for _, ex := range sample {
				p := got.Probabilities(ex.Identifier)
				q := probsDense(want, want.feats.Features(ex.Identifier))
				for _, l := range Levels {
					if math.Float64bits(p[l]) != math.Float64bits(q[l]) {
						t.Fatalf("tagging=%v epochs=%d: P(%v | %q) = %v, dense oracle %v",
							tagging, epochs, l, ex.Identifier, p[l], q[l])
					}
				}
			}
		}
	}
}

// TestSoftmaxConcurrentClassify mirrors /v1/classify, where every handler
// reads one shared trained classifier: concurrent scoring must match a serial
// pass (and, under -race, touch no shared mutable state).
func TestSoftmaxConcurrentClassify(t *testing.T) {
	c := TrainSoftmax("shared", sample, true, DefaultTrainConfig())
	want := make([]Level, len(sample))
	for i, ex := range sample {
		want[i] = c.Classify(ex.Identifier)
	}
	const workers = 8
	got := make([][]Level, workers)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]Level, len(sample))
		wg.Add(1)
		go func(out []Level) {
			defer wg.Done()
			for i, ex := range sample {
				out[i] = c.Classify(ex.Identifier)
			}
		}(got[g])
	}
	wg.Wait()
	for g := range got {
		for i, ex := range sample {
			if got[g][i] != want[i] {
				t.Errorf("goroutine %d: Classify(%q) = %v, serial %v", g, ex.Identifier, got[g][i], want[i])
			}
		}
	}
}

func TestSoftmaxProbabilitiesSumToOne(t *testing.T) {
	c := TrainSoftmax("p", sample, false, DefaultTrainConfig())
	for _, ex := range sample[:10] {
		p := c.Probabilities(ex.Identifier)
		sum := p[Regular] + p[Low] + p[Least]
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("probabilities for %q sum to %v", ex.Identifier, sum)
		}
	}
}

func TestFewShotClassifier(t *testing.T) {
	c := NewFewShotClassifier("fewshot", sample)
	correct := 0
	for _, ex := range sample {
		if c.Classify(ex.Identifier) == ex.Level {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(sample)); frac < 0.5 {
		t.Errorf("few-shot accuracy %v below sanity threshold", frac)
	}
}

func TestConfusionMetrics(t *testing.T) {
	var m Confusion
	// Perfect predictions on 3 examples per class.
	for _, l := range Levels {
		m[l][l] = 3
	}
	if m.Accuracy() != 1 || m.MacroF1() != 1 || m.MacroPrecision() != 1 || m.MacroRecall() != 1 {
		t.Errorf("perfect confusion should yield all 1s: %+v", m)
	}
	// All-wrong matrix.
	var w Confusion
	w[Regular][Least] = 5
	w[Low][Regular] = 5
	w[Least][Low] = 5
	if w.Accuracy() != 0 {
		t.Errorf("all-wrong accuracy = %v", w.Accuracy())
	}
	if w.Total() != 15 {
		t.Errorf("total = %d", w.Total())
	}
}

func TestMetricBounds(t *testing.T) {
	f := func(vals [9]uint8) bool {
		var m Confusion
		k := 0
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				m[i][j] = int(vals[k])
				k++
			}
		}
		for _, v := range []float64{m.Accuracy(), m.MacroPrecision(), m.MacroRecall(), m.MacroF1()} {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitPartitions(t *testing.T) {
	train, val, test := Split(sample, 0.6, 0.2, 7)
	if len(train)+len(val)+len(test) != len(sample) {
		t.Fatalf("split lost examples: %d+%d+%d != %d", len(train), len(val), len(test), len(sample))
	}
	// Determinism.
	train2, _, _ := Split(sample, 0.6, 0.2, 7)
	if len(train2) != len(train) || train2[0] != train[0] {
		t.Error("split not deterministic")
	}
	// No overlap.
	seen := map[string]int{}
	for _, e := range train {
		seen[e.Identifier]++
	}
	for _, e := range val {
		seen[e.Identifier]++
	}
	for _, e := range test {
		seen[e.Identifier]++
	}
	for id, n := range seen {
		if n > 1 {
			t.Errorf("identifier %q appears %d times across splits", id, n)
		}
	}
}

func TestEvaluateCountsEverything(t *testing.T) {
	c := NewHeuristicClassifier()
	m := Evaluate(c, sample)
	if m.Total() != len(sample) {
		t.Errorf("confusion total %d != %d", m.Total(), len(sample))
	}
}

func TestWeakSupervise(t *testing.T) {
	seed := TrainSoftmax("seed", sample[:30], true, DefaultTrainConfig())
	res := WeakSupervise(seed, sample)
	if len(res.Labeled) != len(sample) {
		t.Fatalf("labeled = %d, want %d", len(res.Labeled), len(sample))
	}
	if res.Agreement <= 0.5 || res.Agreement > 1 {
		t.Errorf("agreement implausible: %v", res.Agreement)
	}
	if len(res.Disagreements) != len(sample)-int(res.Agreement*float64(len(sample))+0.5) {
		t.Errorf("disagreement count inconsistent: %d vs agreement %.3f over %d",
			len(res.Disagreements), res.Agreement, len(sample))
	}
	// After curation every label matches the reference.
	refByID := map[string]Level{}
	for _, ex := range sample {
		refByID[ex.Identifier] = ex.Level
	}
	for _, ex := range res.Labeled {
		if ex.Level != refByID[ex.Identifier] {
			t.Errorf("curated label wrong for %q: %v", ex.Identifier, ex.Level)
		}
	}
	empty := WeakSupervise(seed, nil)
	if empty.Agreement != 0 || len(empty.Labeled) != 0 {
		t.Errorf("empty reference mishandled: %+v", empty)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	c := TrainSoftmax("persisted", sample, true, DefaultTrainConfig())
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSoftmax(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name() != "persisted" {
		t.Errorf("name = %q", loaded.Name())
	}
	for _, ex := range sample {
		if got, want := loaded.Classify(ex.Identifier), c.Classify(ex.Identifier); got != want {
			t.Fatalf("loaded model diverges on %q: %v vs %v", ex.Identifier, got, want)
		}
	}
	if _, err := LoadSoftmax(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("junk input should fail to load")
	}
}
