package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeServeReport writes a loadgen-style JSON report for one payload mode.
func writeServeReport(t *testing.T, dir string, rep serveReport) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, rep.Mode+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func baseServeReports() (windows, stream serveReport) {
	windows = serveReport{
		Mode: "windows", Users: 4, RequestsPerUser: 30, Seed: 7,
		Accuracy: 0.90, UplinkBytesPerClassification: 7500, ParseNsPerClassification: 140000,
	}
	stream = serveReport{
		Mode: "stream", Users: 4, RequestsPerUser: 30, Seed: 7,
		Accuracy: 0.90, UplinkBytesPerClassification: 520, ParseNsPerClassification: 6300,
	}
	return windows, stream
}

func TestServeExtractMergesReportsAndFiles(t *testing.T) {
	dir := t.TempDir()
	windows, stream := baseServeReports()
	wPath := writeServeReport(t, dir, windows)
	sPath := writeServeReport(t, dir, stream)
	merged := filepath.Join(dir, "BENCH_serve.json")
	if err := cmdServeExtract([]string{"-o", merged, wPath, sPath}); err != nil {
		t.Fatal(err)
	}
	reports, err := readServeFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports["windows"].Mode != "windows" || reports["stream"].Mode != "stream" {
		t.Fatalf("merged file holds %v", reports)
	}

	// Re-extracting with the merged file plus a newer stream report must keep
	// windows and replace stream (later inputs win).
	stream.UplinkBytesPerClassification = 400
	sPath2 := writeServeReport(t, filepath.Join(dir), stream)
	if err := cmdServeExtract([]string{"-o", merged, merged, sPath2}); err != nil {
		t.Fatal(err)
	}
	reports, err = readServeFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if got := reports["stream"].UplinkBytesPerClassification; got != 400 {
		t.Fatalf("later input did not win: %v", got)
	}
	if _, ok := reports["windows"]; !ok {
		t.Fatal("windows entry lost in re-merge")
	}
}

func TestServeExtractRejectsNonReports(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"users": 3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdServeExtract([]string{bad}); err == nil || !strings.Contains(err.Error(), "no mode field") {
		t.Fatalf("accepted a mode-less report: %v", err)
	}
	if err := cmdServeExtract([]string{}); err == nil {
		t.Fatal("accepted empty input list")
	}
}

// mergeServe builds a BENCH_serve.json from the given reports.
func mergeServe(t *testing.T, dir string, reps ...serveReport) string {
	t.Helper()
	args := []string{"-o", filepath.Join(dir, "BENCH_serve.json")}
	for _, rep := range reps {
		args = append(args, writeServeReport(t, dir, rep))
	}
	if err := cmdServeExtract(args); err != nil {
		t.Fatal(err)
	}
	return args[1]
}

func TestServeVerifyPassesOnCompliantReports(t *testing.T) {
	windows, stream := baseServeReports()
	path := mergeServe(t, t.TempDir(), windows, stream)
	if err := cmdServeVerify([]string{path}); err != nil {
		t.Fatalf("compliant reports rejected: %v", err)
	}
}

func TestServeVerifyGates(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(w, s *serveReport)
		flags   []string
		errPart string
	}{
		{
			name:    "compression below bar",
			mutate:  func(w, s *serveReport) { s.UplinkBytesPerClassification = 1000 },
			errPart: "below required",
		},
		{
			name:    "accuracy drop",
			mutate:  func(w, s *serveReport) { s.Accuracy = 0.80 },
			errPart: "accuracy drop",
		},
		{
			name:    "grid mismatch",
			mutate:  func(w, s *serveReport) { s.Seed = 8 },
			errPart: "different grids",
		},
		{
			name:    "missing uplink column",
			mutate:  func(w, s *serveReport) { s.UplinkBytesPerClassification = 0 },
			errPart: "missing uplinkBytesPerClassification",
		},
		{
			name:    "raised bar fails a passing pair",
			mutate:  func(w, s *serveReport) {},
			flags:   []string{"-min-wire-compression", "20"},
			errPart: "unknown flag -min-wire-compression",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			windows, stream := baseServeReports()
			tc.mutate(&windows, &stream)
			path := mergeServe(t, t.TempDir(), windows, stream)
			err := cmdServeVerify(append(tc.flags, path))
			if err == nil || !strings.Contains(err.Error(), tc.errPart) {
				t.Fatalf("want error containing %q, got %v", tc.errPart, err)
			}
		})
	}

	// The bars are fixed: a loosened accuracy bar is refused, and a pair
	// at exactly 10x compression with a 0.04 drop passes.
	windows, stream := baseServeReports()
	stream.Accuracy = 0.80
	path := mergeServe(t, t.TempDir(), windows, stream)
	if err := cmdServeVerify([]string{"-max-accuracy-drop", "0.2", path}); err == nil || !strings.Contains(err.Error(), "unknown flag -max-accuracy-drop") {
		t.Fatalf("retired -max-accuracy-drop flag not refused: %v", err)
	}
	windows, stream = baseServeReports()
	stream.UplinkBytesPerClassification = 750
	stream.Accuracy = 0.86
	path = mergeServe(t, t.TempDir(), windows, stream)
	if err := cmdServeVerify([]string{path}); err != nil {
		t.Fatalf("pair at the fixed bars rejected: %v", err)
	}
}

func TestServeVerifyRequiresBothModes(t *testing.T) {
	windows, _ := baseServeReports()
	path := mergeServe(t, t.TempDir(), windows)
	if err := cmdServeVerify([]string{path}); err == nil || !strings.Contains(err.Error(), "no stream-mode report") {
		t.Fatalf("verified without a stream report: %v", err)
	}
}

func TestReadServeFileRejectsMismatchedEntry(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	body := `{"modes": {"stream": {"mode": "windows", "users": 1, "requestsPerUser": 1, "seed": 1}}}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readServeFile(path); err == nil || !strings.Contains(err.Error(), "holds a") {
		t.Fatalf("accepted mislabelled entry: %v", err)
	}
}
