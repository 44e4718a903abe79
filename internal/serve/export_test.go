package serve

// CachedCheckers returns a probe of how many façade checkers the entry
// of instance id caches; the probe keeps reading that entry after the
// store drops it. ok is false when the store holds no such instance.
func (s *Server) CachedCheckers(id string) (probe func() int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entry := s.instances[id]
	if entry == nil {
		return nil, false
	}
	return func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(entry.checkers)
	}, true
}
