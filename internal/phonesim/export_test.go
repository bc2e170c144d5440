package phonesim

// Ringing reports whether the line is currently ringing.
func (l *Line) Ringing() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ringing
}
