package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"syscall"
	"time"
)

// trainReport is the part of brainy-train's -report the benchmark reads.
type trainReport struct {
	SeedsScanned      uint64                    `json:"seeds_scanned"`
	LabelsFound       uint64                    `json:"labels_found"`
	SimulatedEvents   float64                   `json:"simulated_events"`
	EventsPerSec      float64                   `json:"events_per_sec"`
	StageSeconds      map[string]float64        `json:"stage_seconds"`
	LabelDistribution map[string]map[string]int `json:"label_distribution"`
	Targets           []struct {
		ValidationApps     int     `json:"validation_apps"`
		ValidationAccuracy float64 `json:"validation_accuracy"`
	} `json:"targets"`
}

// validationAccuracy pools the per-target validation results.
func (r *trainReport) validationAccuracy() float64 {
	var hit, n float64
	for _, t := range r.Targets {
		hit += t.ValidationAccuracy * float64(t.ValidationApps)
		n += float64(t.ValidationApps)
	}
	if n == 0 {
		return 0
	}
	return hit / n
}

// trainRun is the outcome of the offline phase.
type trainRun struct {
	models string
	report trainReport
	wall   time.Duration
}

// runTrain runs brainy-train with the spec's fixed budget, then checks its
// output: the label distribution must match the recorded one, validation
// accuracy may not fall below the recorded value, and the registry must
// pass brainy-serve -check.
func runTrain(binDir, work string, ts TrainSpec) (trainRun, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return trainRun{}, err
	}
	tr := trainRun{models: filepath.Join(work, "models.json")}
	reportPath := filepath.Join(work, "train-report.json")
	args := append(append([]string(nil), ts.Args...), "-o", tr.models, "-report", reportPath)
	cmd := exec.Command(filepath.Join(binDir, "brainy-train"), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM} // never outlive the benchmark
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return tr, fmt.Errorf("brainy-train: %w: %s", err, stderr.String())
	}
	tr.wall = time.Since(start)
	b, err := os.ReadFile(reportPath)
	if err != nil {
		return tr, err
	}
	if err := json.Unmarshal(b, &tr.report); err != nil {
		return tr, fmt.Errorf("parsing %s: %w", reportPath, err)
	}
	if !reflect.DeepEqual(tr.report.LabelDistribution, ts.LabelDistribution) {
		got, _ := json.Marshal(tr.report.LabelDistribution)
		return tr, fmt.Errorf("label distribution differs from the recorded one: %s", got)
	}
	if acc := tr.report.validationAccuracy(); acc < ts.MinValidationAccuracy {
		return tr, fmt.Errorf("validation accuracy %.4f below recorded %.4f", acc, ts.MinValidationAccuracy)
	}
	check := exec.Command(filepath.Join(binDir, "brainy-serve"), "-check", "-models", tr.models)
	if out, err := check.CombinedOutput(); err != nil {
		return tr, fmt.Errorf("brainy-serve -check: %w: %s", err, out)
	}
	return tr, nil
}
