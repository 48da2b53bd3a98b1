package experiments

import (
	"fmt"
	"io"
	"strings"

	"github.com/adamant-db/adamant/internal/vclock"
)

// Table is one report: a titled grid of rows, printed aligned.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// NewTable starts a report with the given title and column header.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Add appends a row; cells are stringified with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Rows = append(t.Rows, row)
}

// WriteTo prints the table as aligned text.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\n== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) && len(c) < widths[i] {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// seconds formats a virtual duration as fractional seconds.
func seconds(d vclock.Duration) string {
	return fmt.Sprintf("%.4f", d.Seconds())
}

// millis formats a virtual duration as milliseconds.
func millis(d vclock.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds()*1e3)
}

// micros formats a virtual duration as microseconds.
func micros(d vclock.Duration) string {
	return fmt.Sprintf("%.1f", d.Seconds()*1e6)
}

// gbps formats a bandwidth given bytes and a duration.
func gbps(bytes int64, d vclock.Duration) string {
	if d <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", float64(bytes)/float64(d))
}

// mops formats element throughput in millions of values per second.
func mops(n int, d vclock.Duration) string {
	if d <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1f", float64(n)/d.Seconds()/1e6)
}

// gib formats a byte count in GiB.
func gib(b int64) string {
	return fmt.Sprintf("%.2f", float64(b)/(1<<30))
}

// ratioStr formats a speedup ratio.
func ratioStr(num, den vclock.Duration) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", float64(num)/float64(den))
}
