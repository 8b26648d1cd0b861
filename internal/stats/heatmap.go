package stats

import (
	"fmt"
	"strings"
)

// Heatmap is a labeled 2-D grid of non-negative intensities, used to render
// the paper's expert-affinity figures (Fig 2, Figs 14-16) as text or CSV.
type Heatmap struct {
	Title      string
	RowLabel   string
	ColLabel   string
	Values     [][]float64
	cellRamp   []rune
	downsample int
}

// shadeRamp maps intensity quantiles to characters, light to dark.
var shadeRamp = []rune{' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'}

// NewHeatmap constructs a heatmap over values (rows x cols). The slice is
// retained, not copied.
func NewHeatmap(title string, values [][]float64) *Heatmap {
	return &Heatmap{Title: title, Values: values, cellRamp: shadeRamp}
}

// CSV renders the grid as comma-separated values with row/col indices.
func (h *Heatmap) CSV() string {
	var b strings.Builder
	if len(h.Values) == 0 {
		return ""
	}
	fmt.Fprintf(&b, "# %s\n", h.Title)
	b.WriteString("row\\col")
	for j := range h.Values[0] {
		fmt.Fprintf(&b, ",%d", j)
	}
	b.WriteByte('\n')
	for i, row := range h.Values {
		fmt.Fprintf(&b, "%d", i)
		for _, v := range row {
			fmt.Fprintf(&b, ",%.6f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Render draws the grid with a shade character per cell, darker meaning a
// larger value relative to the grid maximum. It is intentionally simple: it
// is used to eyeball the "few dark columns per row" structure of Fig 2 in a
// terminal.
func (h *Heatmap) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", h.Title)
	if len(h.Values) == 0 {
		return b.String()
	}
	maxV := 0.0
	for _, row := range h.Values {
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
	}
	for i, row := range h.Values {
		fmt.Fprintf(&b, "%3d |", i)
		for _, v := range row {
			idx := 0
			if maxV > 0 {
				idx = int(v / maxV * float64(len(h.cellRamp)-1))
				if idx >= len(h.cellRamp) {
					idx = len(h.cellRamp) - 1
				}
			}
			b.WriteRune(h.cellRamp[idx])
		}
		b.WriteString("|\n")
	}
	if h.RowLabel != "" || h.ColLabel != "" {
		fmt.Fprintf(&b, "rows: %s, cols: %s\n", h.RowLabel, h.ColLabel)
	}
	return b.String()
}

// DominantColumnFraction returns, averaged over rows, the share of each
// row's mass captured by its top-k columns. A high value (for small k)
// is exactly the paper's "for each row only a few columns are red"
// observation quantified.
func (h *Heatmap) DominantColumnFraction(k int) float64 {
	if len(h.Values) == 0 {
		return 0
	}
	total := 0.0
	rows := 0
	for _, row := range h.Values {
		sum := Sum(row)
		if sum == 0 {
			continue
		}
		sorted := append([]float64(nil), row...)
		// Partial selection of top k by simple repeated max; rows are short.
		top := 0.0
		for i := 0; i < k && i < len(sorted); i++ {
			maxIdx := 0
			for j := 1; j < len(sorted); j++ {
				if sorted[j] > sorted[maxIdx] {
					maxIdx = j
				}
			}
			top += sorted[maxIdx]
			sorted[maxIdx] = -1
		}
		total += top / sum
		rows++
	}
	if rows == 0 {
		return 0
	}
	return total / float64(rows)
}
