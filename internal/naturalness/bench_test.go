package naturalness_test

import (
	"testing"

	"github.com/snails-bench/snails/internal/datasets"
	"github.com/snails-bench/snails/internal/naturalness"
)

// The benchmarks live in the external test package because datasets imports
// naturalness. Both use the production configuration: the Collection 2 split
// that experiments.TrainedClassifier trains on, with character tagging.

// Sinks keep the compiler from discarding the measured calls.
var (
	trainedSink  *naturalness.SoftmaxClassifier
	classifySink naturalness.Level
)

func collection2Split() (train, test []naturalness.Labeled) {
	train, _, test = naturalness.Split(datasets.Collection2(), 0.6, 0.2, 11)
	return train, test
}

// BenchmarkTrainSoftmax times one full training run of the production
// classifier (featurization plus every SGD epoch).
func BenchmarkTrainSoftmax(b *testing.B) {
	train, _ := collection2Split()
	cfg := naturalness.DefaultTrainConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainedSink = naturalness.TrainSoftmax("bench", train, true, cfg)
	}
}

// BenchmarkClassify times one /v1/classify-sized unit of work: featurizing
// and scoring a single held-out identifier.
func BenchmarkClassify(b *testing.B) {
	train, test := collection2Split()
	c := naturalness.TrainSoftmax("bench", train, true, naturalness.DefaultTrainConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		classifySink = c.Classify(test[i%len(test)].Identifier)
	}
}
