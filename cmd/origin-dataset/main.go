// Command origin-dataset synthesises MHEALTH-format subject logs from the
// synthetic IMU generator, and summarises existing logs.
//
//	origin-dataset -out ./data -subjects 3 -minutes 10   # export subject logs
//	origin-dataset -summarize ./data/subject1.log        # inspect a log
//
// The export format is the real MHEALTH layout (24 whitespace-separated
// columns at 50 Hz, label last), so tooling written against the original
// dataset — including this repository's own loader — consumes the files
// unchanged, and real recordings can replace them.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"origin/internal/dataset"
	"origin/internal/synth"
)

func main() {
	var (
		out       = flag.String("out", "data", "output directory for subject logs")
		subjects  = flag.Int("subjects", 3, "number of synthetic subjects to export")
		minutes   = flag.Float64("minutes", 10, "minutes of activity per subject")
		summarize = flag.String("summarize", "", "path of a subject log to summarise instead of exporting")
		kind      = flag.String("dataset", "MHEALTH", "interchange format: MHEALTH (24-column .log) or PAMAP2 (54-column .dat)")
		seed      = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	p, err := synth.ProfileByName(*kind)
	if err != nil {
		fmt.Fprintf(os.Stderr, "origin-dataset: %v\n", err)
		os.Exit(2)
	}
	read := dataset.ReadMHEALTHFile
	write := dataset.WriteMHEALTHFile
	ext := "log"
	if *kind == "PAMAP2" {
		read = dataset.ReadPAMAP2File
		write = dataset.WritePAMAP2File
		ext = "dat"
	}

	if *summarize != "" {
		sets, err := read(*summarize, p, dataset.Window)
		if err != nil {
			fmt.Fprintf(os.Stderr, "origin-dataset: %v\n", err)
			os.Exit(1)
		}
		counts := dataset.ClassCounts(sets[synth.Chest], p.NumClasses())
		fmt.Printf("%s: %d windows of %d samples per location\n", *summarize, len(sets[synth.Chest]), dataset.Window)
		for c, n := range counts {
			fmt.Printf("  %-10s %d\n", p.Activities[c], n)
		}
		return
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "origin-dataset: %v\n", err)
		os.Exit(1)
	}
	// Window-slots per subject: minutes × 60 s ÷ 1.28 s per window.
	slots := int(*minutes * 60 * synth.SampleRate / float64(dataset.Window))
	for s := 0; s < *subjects; s++ {
		u := synth.NewUser(*seed + int64(s))
		tl := synth.GenerateTimeline(p, synth.TimelineConfig{
			Slots: slots, MeanSegment: 40, MinSegment: 10, Seed: *seed + int64(s)*7,
		})
		path := filepath.Join(*out, fmt.Sprintf("subject%d.%s", s+1, ext))
		if err := write(path, p, u, tl.PerSlot, dataset.Window, *seed+int64(s)*13); err != nil {
			fmt.Fprintf(os.Stderr, "origin-dataset: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: %d windows (%.1f min at 50 Hz)\n", path, slots,
			float64(slots)*float64(dataset.Window)/synth.SampleRate/60)
	}
}
