package minic

// ParseUnchecked is Parse without Check: the tests type, and run, programs
// Check rejects.
var ParseUnchecked = parse
