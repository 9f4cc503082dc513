package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// specJSON is the benchmark's fixed configuration: each workload's traffic
// shape, offered rate and ladder start, and the offline
// training budget with the label distribution and validation accuracy it
// must reproduce. README.md documents the choices.
//
//go:embed spec.json
var specJSON []byte

// Spec mirrors spec.json.
type Spec struct {
	Train     TrainSpec               `json:"train"`
	Workloads map[string]WorkloadSpec `json:"workloads"`
}

// TrainSpec fixes the offline phase every run starts with.
type TrainSpec struct {
	// Args are the brainy-train flags besides -o and -report.
	Args []string `json:"args"`
	// Models is how many models the registry must hold.
	Models int `json:"models"`
	// LabelDistribution is the Phase-I label histogram the run must
	// reproduce exactly ("Arch/target" → label → count).
	LabelDistribution map[string]map[string]int `json:"label_distribution"`
	// MinValidationAccuracy is the recorded accuracy the run may not fall
	// below.
	MinValidationAccuracy float64 `json:"min_validation_accuracy"`
}

// WorkloadSpec is one serving workload: its traffic shape and the fixed
// rate and ladder its metrics are measured at.
type WorkloadSpec struct {
	// RateRPS is the fixed offered rate of the latency measurement.
	RateRPS float64 `json:"rate_rps"`
	// FirstRung is the rung the ladder search starts from, set just below
	// the recorded goodput so a typical search takes few probes.
	FirstRung int `json:"first_rung"`
	// ProbeSeconds is how long each ladder rung is offered.
	ProbeSeconds float64 `json:"probe_seconds"`
	// AdvisePerIngest is how many advise requests precede each ingest
	// request in the arrival sequence.
	AdvisePerIngest int `json:"advise_per_ingest"`
	// Keys is the advise key universe; each key is one distinct
	// inference-cache entry.
	Keys int `json:"keys"`
	// Zipf skews key draws (YCSB theta); 0 draws keys uniformly.
	Zipf float64 `json:"zipf"`
	// TracePool, when positive, pre-draws that many advise traces and
	// sends them repeatedly; 0 draws a fresh trace for every request.
	TracePool int `json:"trace_pool"`
	// Instances is how many container instances stream windows at once.
	Instances int `json:"instances"`
	// Steady replays one fixed window per instance instead of a
	// phase-changing stream, so drift never fires and blends repeat.
	Steady bool `json:"steady"`
	// MaxBatch bounds the windows of one ingest request (1..MaxBatch).
	MaxBatch int `json:"max_batch"`
}

func loadSpec() (Spec, error) {
	var s Spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return s, fmt.Errorf("parsing spec.json: %w", err)
	}
	return s, nil
}
