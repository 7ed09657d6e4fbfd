package query

// IndexBuilt reports whether q has built its parent index; the lazy-index
// tests in package query_test read it.
func (q *Q) IndexBuilt() bool { return q.parents != nil }
