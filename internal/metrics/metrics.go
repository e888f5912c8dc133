// Package metrics provides the evaluation-side plumbing shared by every
// experiment: confusion matrices, per-class and overall accuracy, and the
// inference-completion breakdowns reported in the paper's Fig. 1.
package metrics

import (
	"fmt"
	"strings"
)

// Confusion is a square confusion matrix: rows are true classes, columns
// predicted classes. A prediction of -1 (no output available) is counted in
// the Missing tally instead of the matrix.
type Confusion struct {
	// Classes is the number of classes.
	Classes int
	// Counts[t][p] tallies true class t predicted as p.
	Counts [][]int
	// Missing tallies slots with no prediction at all, per true class.
	Missing []int
}

// NewConfusion returns an empty confusion matrix over the given classes.
func NewConfusion(classes int) *Confusion {
	if classes <= 0 {
		panic(fmt.Sprintf("metrics: invalid class count %d", classes))
	}
	c := &Confusion{Classes: classes, Missing: make([]int, classes)}
	c.Counts = make([][]int, classes)
	for i := range c.Counts {
		c.Counts[i] = make([]int, classes)
	}
	return c
}

// Add records one (true, predicted) observation; predicted may be -1 for
// "no output".
func (c *Confusion) Add(trueClass, predicted int) {
	if trueClass < 0 || trueClass >= c.Classes {
		panic(fmt.Sprintf("metrics: true class %d out of range", trueClass))
	}
	if predicted == -1 {
		c.Missing[trueClass]++
		return
	}
	if predicted < 0 || predicted >= c.Classes {
		panic(fmt.Sprintf("metrics: predicted class %d out of range", predicted))
	}
	c.Counts[trueClass][predicted]++
}

// Total returns the number of recorded observations, including missing ones.
func (c *Confusion) Total() int {
	n := 0
	for t := range c.Counts {
		n += c.Missing[t]
		for _, v := range c.Counts[t] {
			n += v
		}
	}
	return n
}

// Accuracy returns overall top-1 accuracy. Missing predictions count as
// wrong, because a HAR system that outputs nothing has not classified the
// activity.
func (c *Confusion) Accuracy() float64 {
	total, correct := 0, 0
	for t := range c.Counts {
		total += c.Missing[t]
		for p, v := range c.Counts[t] {
			total += v
			if p == t {
				correct += v
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// PerClass returns per-true-class accuracy (recall), with missing
// predictions counted as wrong. Classes never observed report 0.
func (c *Confusion) PerClass() []float64 {
	out := make([]float64, c.Classes)
	for t := range c.Counts {
		total := c.Missing[t]
		for _, v := range c.Counts[t] {
			total += v
		}
		if total > 0 {
			out[t] = float64(c.Counts[t][t]) / float64(total)
		}
	}
	return out
}

// String renders the matrix with row/column headers for logs.
func (c *Confusion) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "true\\pred")
	for p := 0; p < c.Classes; p++ {
		fmt.Fprintf(&b, "%6d", p)
	}
	fmt.Fprintf(&b, "%8s\n", "miss")
	for t := 0; t < c.Classes; t++ {
		fmt.Fprintf(&b, "%8d ", t)
		for p := 0; p < c.Classes; p++ {
			fmt.Fprintf(&b, "%6d", c.Counts[t][p])
		}
		fmt.Fprintf(&b, "%8d\n", c.Missing[t])
	}
	return b.String()
}

// Completion tallies the paper's Fig. 1 inference-completion breakdown for
// a multi-sensor system.
type Completion struct {
	// Attempts counts scheduling rounds in which at least one sensor was
	// asked to infer.
	Attempts int
	// AllSucceeded counts rounds where every activated sensor finished.
	AllSucceeded int
	// SomeSucceeded counts rounds where at least one (but not all, if more
	// than one was activated) finished.
	SomeSucceeded int
	// Failed counts rounds where no activated sensor finished.
	Failed int
}

// Record tallies one round with the given activated and completed counts.
func (c *Completion) Record(activated, completed int) {
	if activated <= 0 {
		return
	}
	c.Attempts++
	switch {
	case completed == 0:
		c.Failed++
	case completed == activated:
		c.AllSucceeded++
	default:
		c.SomeSucceeded++
	}
}

// Rates returns the breakdown as fractions of attempts
// (all, atLeastOne, failed). atLeastOne includes the all-succeeded rounds.
func (c *Completion) Rates() (all, atLeastOne, failed float64) {
	if c.Attempts == 0 {
		return 0, 0, 0
	}
	n := float64(c.Attempts)
	all = float64(c.AllSucceeded) / n
	atLeastOne = float64(c.AllSucceeded+c.SomeSucceeded) / n
	failed = float64(c.Failed) / n
	return all, atLeastOne, failed
}

// PerClassF1 returns per-class F1 scores: the harmonic mean of precision
// (correct / predicted-as-c) and recall (correct / truly-c). Missing
// predictions count against recall only. Classes never seen report 0.
func (c *Confusion) PerClassF1() []float64 {
	out := make([]float64, c.Classes)
	for cls := 0; cls < c.Classes; cls++ {
		tp := c.Counts[cls][cls]
		predicted := 0
		for t := 0; t < c.Classes; t++ {
			predicted += c.Counts[t][cls]
		}
		actual := c.Missing[cls]
		for _, v := range c.Counts[cls] {
			actual += v
		}
		if tp == 0 || predicted == 0 || actual == 0 {
			continue
		}
		precision := float64(tp) / float64(predicted)
		recall := float64(tp) / float64(actual)
		out[cls] = 2 * precision * recall / (precision + recall)
	}
	return out
}

// MacroF1 returns the unweighted mean of the per-class F1 scores over the
// classes that actually appear as true labels — the standard headline
// metric for imbalanced HAR streams.
func (c *Confusion) MacroF1() float64 {
	f1 := c.PerClassF1()
	sum, n := 0.0, 0
	for cls := 0; cls < c.Classes; cls++ {
		actual := c.Missing[cls]
		for _, v := range c.Counts[cls] {
			actual += v
		}
		if actual == 0 {
			continue
		}
		sum += f1[cls]
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
