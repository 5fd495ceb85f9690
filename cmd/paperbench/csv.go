package main

import (
	"encoding/csv"
	"io"
	"strconv"

	"sfsched/internal/metrics"
)

// writeSeriesCSV writes one or more aligned series as a CSV table, the form
// the paper's figures plot: the first column is X (seconds), then one column
// per series. Series need not have identical lengths; missing cells are left
// empty.
func writeSeriesCSV(w io.Writer, series ...*metrics.Series) error {
	if len(series) == 0 {
		return nil
	}
	out := csv.NewWriter(w)
	header, rows := []string{"time_s"}, 0
	for _, s := range series {
		header = append(header, s.Name)
		rows = max(rows, len(s.X))
	}
	_ = out.Write(header) // a csv.Writer keeps its first error for Error()
	for i := 0; i < rows; i++ {
		row := make([]string, 1, len(header))
		for _, s := range series {
			if row[0] == "" && i < len(s.X) {
				row[0] = strconv.FormatFloat(s.X[i], 'f', 6, 64)
			}
			cell := ""
			if i < len(s.Y) {
				cell = strconv.FormatFloat(s.Y[i], 'g', -1, 64)
			}
			row = append(row, cell)
		}
		_ = out.Write(row)
	}
	out.Flush()
	return out.Error()
}
