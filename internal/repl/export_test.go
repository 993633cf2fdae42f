package repl

// LastError returns the most recent fetch error line ("" when none) — a
// debugging convenience for health output.
func (f *Follower) LastError() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastErr
}
