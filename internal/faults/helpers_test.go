package faults

// Empty reports whether the schedule contains no events.
func (s *Schedule) Empty() bool { return len(s.events) == 0 }
