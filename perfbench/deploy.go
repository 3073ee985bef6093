package main

import (
	"time"

	"schemble/internal/dataset"
	"schemble/internal/ensemble"
	"schemble/internal/model"
	"schemble/internal/pipeline"
)

// deploySeed fixes the fitted deployment — dataset, model zoo, predictor,
// reward profile and cache keyer — so runs with different --seed values
// measure the same system on different inputs. --seed drives every input
// generator and the runtime's own latency draws.
const deploySeed = 7

// size scales the fitted deployment and the replayed trace.
type size struct {
	// samples is the text-matching dataset size; 40% of it is the serving
	// pool the workloads draw from.
	samples int
	// epochs trains the difficulty predictor.
	epochs int
	// hourSeconds is the replay trace's compression: virtual seconds per
	// trace hour.
	hourSeconds float64
}

// fullSize is the benchmark's size: a 1600-sample serving pool, fitted in
// about 1.5 s on a 2-core container, and a 17k-query replay.
var fullSize = size{samples: 4000, epochs: 40, hourSeconds: 30}

// deployment is a fitted pipeline plus the reference answers the output
// checks compare against.
type deployment struct {
	arts *pipeline.Artifacts
	// expect[id][s] is Ensemble.PredictSubset(sample id, s) for every
	// serving-pool sample and every non-empty subset s. Models are
	// deterministic, so a served, non-cached, non-degraded result must
	// equal it exactly.
	expect [][]model.Output
	// maxMean[s] is the largest profiled MeanLatency among the models in
	// subset s: the model time a request served by s cannot avoid.
	maxMean []time.Duration
}

// fit builds the text-matching pipeline; it is the part of set-up every
// workload shares.
func fit(sz size) *pipeline.Artifacts {
	return pipeline.Build(pipeline.Config{
		Dataset:         dataset.TextMatching(dataset.Config{N: sz.samples, Seed: deploySeed}),
		Models:          model.TextMatchingModels(deploySeed),
		PredictorEpochs: sz.epochs,
		Seed:            deploySeed,
	})
}

// newDeployment precomputes the reference answers. It runs after set-up is
// timed: it serves the checks, not the system.
func newDeployment(a *pipeline.Artifacts) *deployment {
	e := a.Ensemble
	subsets := 1 << e.M()
	d := &deployment{
		arts:    a,
		expect:  make([][]model.Output, len(a.Dataset.Samples)),
		maxMean: make([]time.Duration, subsets),
	}
	for s := 1; s < subsets; s++ {
		for _, k := range ensemble.Subset(s).Models() {
			if lat := e.Models[k].MeanLatency(); lat > d.maxMean[s] {
				d.maxMean[s] = lat
			}
		}
	}
	for _, smp := range a.Serve {
		row := make([]model.Output, subsets)
		for s := 1; s < subsets; s++ {
			row[s] = e.PredictSubset(smp, ensemble.Subset(s))
		}
		d.expect[smp.ID] = row
	}
	return d
}

// sameOutput reports whether two outputs are bit-identical; models are
// deterministic, so exact float equality is the contract.
func sameOutput(a, b model.Output) bool {
	if len(a.Probs) != len(b.Probs) || len(a.Embedding) != len(b.Embedding) {
		return false
	}
	for i := range a.Probs {
		if a.Probs[i] != b.Probs[i] {
			return false
		}
	}
	for i := range a.Embedding {
		if a.Embedding[i] != b.Embedding[i] {
			return false
		}
	}
	return a.Value == b.Value
}

// timedSetups runs setup n times, tears down all but the last, and returns
// the last instance with the median set-up time in seconds.
func timedSetups[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(last)
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, median(times), nil
}
