package bank

import "mineassess/internal/item"

// Revision history: the paper's cycle has instructors fixing problematic
// questions after each analysis ("Teachers can see the analysis of test
// result and fix problematic questions"). The store keeps the superseded
// versions so a fix can be audited or rolled back.

// Revision is one superseded version of a problem.
type Revision struct {
	// Version counts from 1 (the original).
	Version int
	Problem *item.Problem
}
