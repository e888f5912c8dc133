package report

import (
	"bytes"
	"strings"
	"testing"

	"origin/internal/experiments"
)

func sampleTable() *Table {
	t := NewTable("Sample", "Name", "Value")
	t.AddRow("alpha", "1.00%")
	t.AddRow("beta, with comma", "2.00%")
	return t
}

func TestWriteText(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Sample", "Name", "alpha", "beta, with comma"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
	// Columns aligned: both value cells start at the same offset.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if idx1, idx2 := strings.Index(lines[2], "1.00%"), strings.Index(lines[3], "2.00%"); idx1 != idx2 {
		t.Fatalf("columns misaligned: %d vs %d\n%s", idx1, idx2, out)
	}
}

func TestWriteMarkdown(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "### Sample") {
		t.Fatalf("markdown missing heading:\n%s", out)
	}
	if !strings.Contains(out, "| Name | Value |") {
		t.Fatalf("markdown missing header row:\n%s", out)
	}
	if !strings.Contains(out, "| --- | --- |") {
		t.Fatalf("markdown missing separator:\n%s", out)
	}
}

func TestWriteCSVQuoting(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"beta, with comma"`) {
		t.Fatalf("csv did not quote comma cell:\n%s", out)
	}
	if !strings.Contains(out, "# Sample") {
		t.Fatalf("csv missing title comment:\n%s", out)
	}
}

func TestAddRowValidatesWidth(t *testing.T) {
	tb := NewTable("x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("short row did not panic")
		}
	}()
	tb.AddRow("only one")
}

func TestFormatters(t *testing.T) {
	if Percent(0.8388) != "83.88%" {
		t.Fatalf("Percent = %q", Percent(0.8388))
	}
	if Delta(0.0272) != "+2.72" {
		t.Fatalf("Delta = %q", Delta(0.0272))
	}
	if Delta(-0.0285) != "-2.85" {
		t.Fatalf("Delta = %q", Delta(-0.0285))
	}
}

func TestWriteDispatch(t *testing.T) {
	var buf bytes.Buffer
	for _, f := range []Format{Text, Markdown, CSV} {
		buf.Reset()
		if err := sampleTable().Write(&buf, f); err != nil {
			t.Fatalf("format %d: %v", f, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("format %d produced nothing", f)
		}
	}
	if err := sampleTable().Write(&buf, Format(9)); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestAdaptersProduceTables(t *testing.T) {
	fig1 := &experiments.Fig1Result{
		NaiveAll: 0.02, NaiveAtLeastOne: 0.08, NaiveFailed: 0.92,
		RR3Succeeded: 0.24, RR3Failed: 0.76, Slots: 100,
	}
	if tb := Fig1Table(fig1); len(tb.Rows) != 5 {
		t.Fatalf("fig1 rows = %d", len(tb.Rows))
	}
	t1 := &experiments.Table1Result{
		Activities: []string{"Walking"},
		Origin:     []float64{0.81}, BL2: []float64{0.84}, BL1: []float64{0.91},
		OriginOverall: 0.83, BL2Overall: 0.81, BL1Overall: 0.87,
	}
	tb := Table1Table(t1)
	if len(tb.Rows) != 2 {
		t.Fatalf("table1 rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][4] != "-3.00" {
		t.Fatalf("delta cell = %q", tb.Rows[0][4])
	}
	abl := &experiments.AblationSet{Title: "T", Rows: []experiments.AblationResult{{Name: "a", Accuracy: 0.5, Completion: 0.9}}}
	if tb := AblationTable(abl); len(tb.Rows) != 1 {
		t.Fatalf("ablation rows = %d", len(tb.Rows))
	}
}

func TestItoa(t *testing.T) {
	for v, want := range map[int]string{0: "0", 12: "12", -3: "-3", 360: "360"} {
		if got := itoa(v); got != want {
			t.Fatalf("itoa(%d) = %q, want %q", v, got, want)
		}
	}
}

func TestFigureAdapters(t *testing.T) {
	fig2 := &experiments.Fig2Result{
		Activities: []string{"Walking", "Cycling"},
		PerSensor:  [][]float64{{0.5, 0.8}, {0.6, 0.9}, {0.4, 0.95}},
		Majority:   []float64{0.7, 0.97},
		Windows:    100,
	}
	tb := Fig2Table(fig2)
	if len(tb.Rows) != 2 || tb.Rows[1][4] != "97.00%" {
		t.Fatalf("fig2 table = %+v", tb.Rows)
	}

	fig5 := &experiments.Fig5Result{
		Dataset:    "MHEALTH",
		Activities: []string{"Walking"},
		Cells: []experiments.PolicyCell{
			{Width: 12, Kind: experiments.PolicyOrigin, PerClass: []float64{0.8}, Overall: 0.8},
		},
		B1PerClass: []float64{0.85}, B2PerClass: []float64{0.78},
		B1Overall: 0.85, B2Overall: 0.78,
	}
	tb5 := Fig5Table(fig5)
	if len(tb5.Rows) != 3 { // 1 cell + 2 baselines
		t.Fatalf("fig5 rows = %d", len(tb5.Rows))
	}
	if tb5.Rows[0][0] != "RR12 Origin" {
		t.Fatalf("fig5 cell name = %q", tb5.Rows[0][0])
	}

	fig6 := &experiments.Fig6Result{
		Users:  []string{"User 1"},
		Curves: [][]float64{{0.7, 0.72, 0.75, 0.78}},
		Base:   0.8,
	}
	tb6 := Fig6Table(fig6)
	if len(tb6.Rows) != 2 || len(tb6.Header) != 1+len(experiments.Fig6Checkpoints) {
		t.Fatalf("fig6 table shape = %dx%d", len(tb6.Rows), len(tb6.Header))
	}
	if tb6.Rows[1][0] != "Base model" {
		t.Fatalf("fig6 base row = %q", tb6.Rows[1][0])
	}
}

func TestBarChartRendering(t *testing.T) {
	c := &BarChart{Title: "Accuracy", Width: 10}
	c.Add("Origin", 0.8)
	c.Add("BL-2", 0.4)
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Accuracy") || !strings.Contains(out, "Origin") {
		t.Fatalf("chart missing labels:\n%s", out)
	}
	// The 0.8 bar is full scale (auto max), the 0.4 bar half.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	full := strings.Count(lines[1], "█")
	half := strings.Count(lines[2], "█")
	if full != 10 || half != 5 {
		t.Fatalf("bar widths = %d/%d, want 10/5\n%s", full, half, out)
	}
}

func TestBarChartClampsAndEmpty(t *testing.T) {
	c := &BarChart{Max: 1, Width: 4}
	c.Add("over", 2)   // clamps to full width
	c.Add("neg", -0.5) // clamps to zero
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if strings.Count(lines[0], "█") != 4 {
		t.Fatalf("over-scale bar not clamped:\n%s", buf.String())
	}
	if strings.Count(lines[1], "█") != 0 {
		t.Fatalf("negative bar not clamped:\n%s", buf.String())
	}
}
