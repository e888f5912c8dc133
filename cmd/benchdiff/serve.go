package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Serve-side benchmark gating (BENCH_serve.json).
//
// Where extract/compare/verify gate kernel benchmarks, serve-extract and
// serve-verify gate the serving wire protocol: the committed BENCH_serve.json
// holds one loadgen report per payload mode, and serve-verify enforces the
// stream protocol's claim — at least minWireCompression times fewer uplink
// bytes per classification than JSON windows mode, with an accuracy drop of
// at most maxAccuracyDrop. The reports must come from the same (users, requests, seed) grid
// so the two modes classified the same ground-truth timelines.

const (
	minWireCompression = 10.0
	maxAccuracyDrop    = 0.05
)

// serveReport is the slice of a loadgen report the gate reads. The full
// report is preserved verbatim in the file; this struct only names the
// gated columns.
type serveReport struct {
	Mode                         string  `json:"mode"`
	Users                        int     `json:"users"`
	RequestsPerUser              int     `json:"requestsPerUser"`
	Seed                         int64   `json:"seed"`
	Accuracy                     float64 `json:"accuracy"`
	UplinkBytesPerClassification float64 `json:"uplinkBytesPerClassification"`
	ParseNsPerClassification     float64 `json:"parseNsPerClassification"`
}

// serveFile is the committed BENCH_serve.json format: one loadgen report per
// payload mode, keyed by mode name.
type serveFile struct {
	Modes map[string]json.RawMessage `json:"modes"`
}

// cmdServeExtract merges loadgen JSON reports (each self-describing via its
// "mode" field) into one modes-keyed file. Inputs may also be existing
// modes files, whose entries are merged — later inputs win on collision.
func cmdServeExtract(args []string) error {
	outPath := ""
	rest, err := parseFlags(args, map[string]*string{"-o": &outPath})
	if err != nil {
		return err
	}
	if len(rest) == 0 {
		return fmt.Errorf("serve-extract needs at least one loadgen report")
	}
	merged := serveFile{Modes: map[string]json.RawMessage{}}
	for _, path := range rest {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var asFile serveFile
		if err := json.Unmarshal(data, &asFile); err == nil && len(asFile.Modes) > 0 {
			for mode, raw := range asFile.Modes {
				merged.Modes[mode] = raw
			}
			continue
		}
		var rep serveReport
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if rep.Mode == "" {
			return fmt.Errorf("%s: not a loadgen report (no mode field)", path)
		}
		merged.Modes[rep.Mode] = json.RawMessage(data)
	}
	out, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if outPath == "" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(outPath, out, 0o644)
}

// cmdServeVerify gates the stream protocol against the JSON windows
// baseline recorded in the same file.
func cmdServeVerify(args []string) error {
	rest, err := parseFlags(args, nil)
	if err != nil {
		return err
	}
	if len(rest) != 1 {
		return fmt.Errorf("serve-verify needs exactly one file")
	}
	reports, err := readServeFile(rest[0])
	if err != nil {
		return err
	}
	windows, ok := reports["windows"]
	if !ok {
		return fmt.Errorf("%s: no windows-mode report", rest[0])
	}
	stream, ok := reports["stream"]
	if !ok {
		return fmt.Errorf("%s: no stream-mode report", rest[0])
	}
	if windows.Users != stream.Users || windows.RequestsPerUser != stream.RequestsPerUser || windows.Seed != stream.Seed {
		return fmt.Errorf("windows and stream reports ran different grids (%d×%d seed %d vs %d×%d seed %d) — bytes and accuracy are not comparable",
			windows.Users, windows.RequestsPerUser, windows.Seed,
			stream.Users, stream.RequestsPerUser, stream.Seed)
	}
	if windows.UplinkBytesPerClassification <= 0 || stream.UplinkBytesPerClassification <= 0 {
		return fmt.Errorf("missing uplinkBytesPerClassification columns")
	}
	compression := windows.UplinkBytesPerClassification / stream.UplinkBytesPerClassification
	fmt.Printf("benchdiff: uplink windows=%.1fB stream=%.1fB compression=%.2fx (min %.2fx)\n",
		windows.UplinkBytesPerClassification, stream.UplinkBytesPerClassification, compression, minWireCompression)
	if windows.ParseNsPerClassification > 0 && stream.ParseNsPerClassification > 0 {
		fmt.Printf("benchdiff: parse  windows=%.0fns stream=%.0fns speedup=%.2fx\n",
			windows.ParseNsPerClassification, stream.ParseNsPerClassification,
			windows.ParseNsPerClassification/stream.ParseNsPerClassification)
	}
	drop := windows.Accuracy - stream.Accuracy
	fmt.Printf("benchdiff: accuracy windows=%.4f stream=%.4f drop=%+.4f (max %.4f)\n",
		windows.Accuracy, stream.Accuracy, drop, maxAccuracyDrop)
	if compression < minWireCompression {
		return fmt.Errorf("stream compression %.2fx below required %.2fx", compression, minWireCompression)
	}
	if drop > maxAccuracyDrop {
		return fmt.Errorf("stream accuracy drop %.4f exceeds allowed %.4f", drop, maxAccuracyDrop)
	}
	return nil
}

// readServeFile loads a modes-keyed serve benchmark file.
func readServeFile(path string) (map[string]serveReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f serveFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Modes) == 0 {
		return nil, fmt.Errorf("%s: not a serve benchmark file (no modes)", path)
	}
	reports := make(map[string]serveReport, len(f.Modes))
	keys := make([]string, 0, len(f.Modes))
	for mode := range f.Modes {
		keys = append(keys, mode)
	}
	sort.Strings(keys)
	for _, mode := range keys {
		var rep serveReport
		if err := json.Unmarshal(f.Modes[mode], &rep); err != nil {
			return nil, fmt.Errorf("%s: mode %s: %w", path, mode, err)
		}
		if rep.Mode != mode {
			return nil, fmt.Errorf("%s: entry %q holds a %q report", path, mode, rep.Mode)
		}
		reports[mode] = rep
	}
	return reports, nil
}
