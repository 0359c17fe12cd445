package main

import (
	"bufio"
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// table is one report abrsim printed to stdout:
//
//	<id>: <title>
//	<header cells, aligned>
//	<row cells, aligned> ...
//	note: ...
//
// Cells are padded into columns two or more spaces apart (tabwriter),
// and a cell may hold single spaces ("Resp (ms)", "18.66/18.68/18.71"),
// so rows are cut at the header's column offsets, not at white space.
type table struct {
	id   string
	cols []string
	rows [][]string
}

var (
	reportTitle = regexp.MustCompile(`^([a-z][a-z0-9-]*): \S`)
	columnGap   = regexp.MustCompile(` {2,}`)
)

// parseReports reads every table in an abrsim stdout.
func parseReports(stdout []byte) ([]*table, error) {
	var tables []*table
	var cur *table
	var offsets []int // rune offset of each column's first cell character
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "note: ") || strings.TrimSpace(line) == "":
			cur = nil
		case cur == nil && reportTitle.MatchString(line):
			cur = &table{id: reportTitle.FindStringSubmatch(line)[1]}
			offsets = nil
			tables = append(tables, cur)
		case cur == nil:
			return nil, fmt.Errorf("stdout line %q is outside any report", line)
		case offsets == nil:
			offsets = []int{0}
			for _, gap := range columnGap.FindAllStringIndex(line, -1) {
				if gap[1] < len(line) {
					offsets = append(offsets, len([]rune(line[:gap[1]])))
				}
			}
			cur.cols = cutCells(line, offsets)
		default:
			cur.rows = append(cur.rows, cutCells(line, offsets))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(tables) == 0 {
		return nil, fmt.Errorf("stdout holds no report")
	}
	return tables, nil
}

func cutCells(line string, offsets []int) []string {
	r := []rune(line)
	cells := make([]string, len(offsets))
	for i, start := range offsets {
		end := len(r)
		if i+1 < len(offsets) && offsets[i+1] < end {
			end = offsets[i+1]
		}
		if start < end {
			cells[i] = strings.TrimSpace(string(r[start:end]))
		}
	}
	return cells
}

// withColumn returns the first table that has a column of that name.
func withColumn(tables []*table, col string) (*table, error) {
	for _, t := range tables {
		if t.index(col) >= 0 {
			return t, nil
		}
	}
	return nil, fmt.Errorf("no report has a %q column", col)
}

func (t *table) index(col string) int {
	for i, c := range t.cols {
		if c == col {
			return i
		}
	}
	return -1
}

// find returns the first row whose leading cells equal key.
func (t *table) find(key ...string) ([]string, error) {
rows:
	for _, row := range t.rows {
		for i, k := range key {
			if i >= len(row) || row[i] != k {
				continue rows
			}
		}
		return row, nil
	}
	return nil, fmt.Errorf("report %s: missing row %s", t.id, strings.Join(key, " / "))
}

// text returns the cell of row under col.
func (t *table) text(row []string, col string) (string, error) {
	i := t.index(col)
	if i < 0 || i >= len(row) {
		return "", fmt.Errorf("report %s: row %q has no %q column", t.id, row[0], col)
	}
	return row[i], nil
}

// num returns the cell of row under col as a number.
func (t *table) num(row []string, col string) (float64, error) {
	s, err := t.text(row, col)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("report %s: row %q column %q: %q is not a number", t.id, row[0], col, s)
	}
	return v, nil
}

// sum adds the col cells of every row.
func (t *table) sum(col string) (float64, error) {
	var total float64
	for _, row := range t.rows {
		v, err := t.num(row, col)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// avgOf returns the middle of a "min/avg/max" cell.
func avgOf(cell string) (float64, error) {
	parts := strings.Split(cell, "/")
	if len(parts) != 3 {
		return 0, fmt.Errorf("cell %q is not min/avg/max", cell)
	}
	return strconv.ParseFloat(parts[1], 64)
}

// job is one line of the per-job summary abrsim prints to stderr:
//
//	abrsim: job                            wall  sim-days   days/sec       events      spans
//	abrsim: onoff/system/toshiba         7.006s       4.0       0.57      4604400          0
type job struct {
	name   string
	wall   time.Duration
	events int64
	failed bool
}

// parseJobs reads the job summary out of an abrsim stderr.
func parseJobs(stderr []byte) ([]job, error) {
	var jobs []job
	inTable := false
	sc := bufio.NewScanner(bytes.NewReader(stderr))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "abrsim:" {
			continue
		}
		if len(f) == 7 && f[1] == "job" && f[2] == "wall" && f[5] == "events" {
			inTable = true
			continue
		}
		if !inTable {
			continue
		}
		// The table runs to the first line that is not a job line.
		if len(f) < 7 || len(f) > 8 {
			inTable = false
			continue
		}
		wall, werr := time.ParseDuration(f[2])
		events, eerr := strconv.ParseInt(f[5], 10, 64)
		if werr != nil || eerr != nil {
			inTable = false
			continue
		}
		jobs = append(jobs, job{name: f[1], wall: wall, events: events, failed: len(f) == 8 && f[7] == "FAILED"})
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("stderr holds no job table")
	}
	return jobs, nil
}
