package analysis

// matrix is an exam result indexed once: a column per problem in exam order
// and a row per distinct student ID, each cell holding that student's last
// response to that problem, or nil for none. Students sharing an ID share a
// row, a later response to a problem replaces an earlier one, and responses
// to problems outside the exam are skipped. Every per-question statistic
// reads one column, so one analysis costs O(students × problems).
type matrix struct {
	rows map[string]int // student ID → row
	cols map[string]int // problem ID → column
	// cells is column-major: column j is cells[j*len(rows):(j+1)*len(rows)].
	// Each cell points into the result's own Responses.
	cells []*Response
}

func newMatrix(e *ExamResult) *matrix {
	m := &matrix{
		rows: make(map[string]int, len(e.Students)),
		cols: make(map[string]int, len(e.Problems)),
	}
	for _, p := range e.Problems {
		if _, dup := m.cols[p.ID]; !dup {
			m.cols[p.ID] = len(m.cols)
		}
	}
	for _, s := range e.Students {
		if _, dup := m.rows[s.StudentID]; !dup {
			m.rows[s.StudentID] = len(m.rows)
		}
	}
	n := len(m.rows)
	m.cells = make([]*Response, len(m.cols)*n)
	for _, s := range e.Students {
		row := m.rows[s.StudentID]
		for i := range s.Responses {
			if j, ok := m.cols[s.Responses[i].ProblemID]; ok {
				m.cells[j*n+row] = &s.Responses[i]
			}
		}
	}
	return m
}

// column returns the problem's cells indexed by row, or nil when the problem
// is not in the exam.
func (m *matrix) column(problemID string) []*Response {
	j, ok := m.cols[problemID]
	if !ok {
		return nil
	}
	n := len(m.rows)
	return m.cells[j*n : (j+1)*n]
}

// rowsOf returns the row of each student ID, -1 for an ID with none.
func (m *matrix) rowsOf(ids []string) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		row, ok := m.rows[id]
		if !ok {
			row = -1
		}
		out[i] = row
	}
	return out
}

// cell returns the response at row of col, or nil for none (row -1 included).
func cell(col []*Response, row int) *Response {
	if row < 0 {
		return nil
	}
	return col[row]
}
