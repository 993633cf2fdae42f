package store

import "corrfuse/internal/triple"

// Capture is CaptureFrom(nil)'s dataset and rows.
func (s *Store) Capture() (d *triple.Dataset, rows []int) {
	c := s.CaptureFrom(nil)
	return c.Data, c.Rows
}
