package exp

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"cij/internal/dataset"
)

func formatPct(p float64) string { return strconv.FormatFloat(p, 'g', -1, 64) + "%" }

func formatInt(n int) string { return strconv.Itoa(n) }

// formatK renders a cardinality the way the paper's axes do ("100K").
func formatK(n int) string {
	if n >= 1000 && n%1000 == 0 {
		return strconv.Itoa(n/1000) + "K"
	}
	return strconv.Itoa(n)
}

func formatCPU(d time.Duration) string {
	return fmt.Sprintf("%.2fs", d.Seconds())
}

// Table is a rendered experiment table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Fprint writes the table in aligned plain text.
func (t Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(pad(c, widths[i]))
		}
		fmt.Fprintln(w, sb.String())
	}
	printRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, r := range t.Rows {
		printRow(r)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Table renders the Fig. 5 result as summary statistics plus the first
// queries, mirroring the per-query scatter of the paper's plot.
func (r Fig5Result) Table() Table {
	t := Table{
		Title:   fmt.Sprintf("Fig. 5 — Voronoi cell computation, %d individual queries, n=%s", len(r.Queries), formatK(r.N)),
		Columns: []string{"query", "TP-VOR nodes", "BF-VOR nodes", "TP-VOR cpu", "BF-VOR cpu", "TP probes"},
	}
	for _, q := range r.Queries {
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(q.Query),
			strconv.FormatInt(q.TPNodes, 10),
			strconv.FormatInt(q.BFNodes, 10),
			q.TPCPU.String(),
			q.BFCPU.String(),
			strconv.Itoa(q.TPProbes),
		})
	}
	tp, bf := r.Means()
	t.Rows = append(t.Rows, []string{"mean", fmt.Sprintf("%.1f", tp), fmt.Sprintf("%.1f", bf), "", "", ""})
	return t
}

// TableFig6 renders Fig. 6 rows.
func TableFig6(rows []Fig6Row) Table {
	t := Table{
		Title:   "Fig. 6 — Voronoi diagram computation vs datasize (I/O = page accesses, 2% buffer)",
		Columns: []string{"n", "ITER I/O", "BATCH I/O", "LB", "ITER CPU", "BATCH CPU"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			formatK(r.N),
			strconv.FormatInt(r.IterIO, 10),
			strconv.FormatInt(r.BatchIO, 10),
			strconv.FormatInt(r.LB, 10),
			formatCPU(r.IterCPU),
			formatCPU(r.BatchCPU),
		})
	}
	return t
}

// TableT1 renders Table I, the dataset inventory, straight from
// dataset.RealDatasets, with each cardinality multiplied by scale (1 = the
// paper's).
func TableT1(scale float64) Table {
	t := Table{
		Title:   "Table I — datasets (clustered synthetic stand-ins)",
		Columns: []string{"dataset", "contents", "cardinality"},
	}
	for _, d := range dataset.RealDatasets {
		t.Rows = append(t.Rows, []string{d.Name, d.Description, strconv.Itoa(int(float64(d.Cardinality) * scale))})
	}
	return t
}

// TableT2 renders Table II.
func TableT2(rows []Table2Row) Table {
	t := Table{
		Title:   "Table II — BatchVoronoi on real-like datasets",
		Columns: []string{"dataset", "n", "page accesses", "CPU"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Name, strconv.Itoa(r.N),
			strconv.FormatInt(r.Pages, 10),
			formatCPU(r.CPU),
		})
	}
	return t
}

// TableFig7 renders the cost breakdown.
func TableFig7(rows []Fig7Row) Table {
	t := Table{
		Title:   "Fig. 7 — cost breakdown (MAT vs JOIN)",
		Columns: []string{"algorithm", "MAT I/O", "JOIN I/O", "total I/O", "MAT CPU", "JOIN CPU", "pairs"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Algo,
			strconv.FormatInt(r.MatIO, 10),
			strconv.FormatInt(r.JoinIO, 10),
			strconv.FormatInt(r.MatIO+r.JoinIO, 10),
			formatCPU(r.MatCPU),
			formatCPU(r.JoinCPU),
			strconv.FormatInt(r.Pairs, 10),
		})
	}
	return t
}

// TableSweep renders a Fig. 8/9a-style sweep.
func TableSweep(title, xlabel string, rows []SweepRow) Table {
	t := Table{
		Title:   title,
		Columns: []string{xlabel, "FM-CIJ", "PM-CIJ", "NM-CIJ", "LB"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.X,
			strconv.FormatInt(r.FM, 10),
			strconv.FormatInt(r.PM, 10),
			strconv.FormatInt(r.NM, 10),
			strconv.FormatInt(r.LB, 10),
		})
	}
	return t
}

// TableFig9b renders the progressiveness curves, downsampled.
func TableFig9b(res Fig9bResult) Table {
	t := Table{
		Title:   "Fig. 9b — output progress (pairs produced vs page accesses)",
		Columns: []string{"algorithm", "25% I/O", "50% I/O", "75% I/O", "100% I/O"},
	}
	for i, name := range AlgoNames {
		curve := res.Curves[i]
		if len(curve) == 0 {
			t.Rows = append(t.Rows, []string{name, "-", "-", "-", "-"})
			continue
		}
		total := curve[len(curve)-1].PageAccesses
		row := []string{name}
		for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
			target := int64(float64(total) * frac)
			var pairs int64
			for _, pt := range curve {
				if pt.PageAccesses <= target {
					pairs = pt.Pairs
				}
			}
			row = append(row, strconv.FormatInt(pairs, 10))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// TableFig10 renders a false-hit-ratio sweep.
func TableFig10(title, xlabel string, rows []Fig10Row) Table {
	t := Table{
		Title:   title,
		Columns: []string{xlabel, "false hit ratio", "candidates", "true hits"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.X,
			fmt.Sprintf("%.4f", r.FHR),
			strconv.FormatInt(r.Candidates, 10),
			strconv.FormatInt(r.TrueHits, 10),
		})
	}
	return t
}

// TableFig11 renders a reuse-ablation sweep.
func TableFig11(title, xlabel string, rows []Fig11Row) Table {
	t := Table{
		Title:   title,
		Columns: []string{xlabel, "REUSE cells", "NO-REUSE cells", "|P|"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.X,
			strconv.FormatInt(r.Reuse, 10),
			strconv.FormatInt(r.NoReuse, 10),
			strconv.FormatInt(r.SizeP, 10),
		})
	}
	return t
}

// TableT3 renders Table III.
func TableT3(rows []Table3Row) Table {
	t := Table{
		Title:   "Table III — result size and page accesses on real-like dataset pairs",
		Columns: []string{"Q", "P", "CIJ pairs", "FM-CIJ", "PM-CIJ", "NM-CIJ", "LB"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Q, r.P,
			strconv.FormatInt(r.Pairs, 10),
			strconv.FormatInt(r.FM, 10),
			strconv.FormatInt(r.PM, 10),
			strconv.FormatInt(r.NM, 10),
			strconv.FormatInt(r.LB, 10),
		})
	}
	return t
}
