package serve

import "context"

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

// CheckAfterDrop replays a check of instance id that loses the race
// with the instance's deletion: the request resolves the entry, the
// store drops the entry and closes its cached checkers as DELETE does,
// and only then does the request build its checker on the backend,
// check the document's proof, and end.
func (s *Server) CheckAfterDrop(ctx context.Context, id, backend string) error {
	req := checkRequest{Instance: id, Backend: backend}
	entry, scheme, err := s.resolve(&req)
	if err != nil {
		return err
	}
	cfg, err := s.requestConfig(&req)
	if err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.instances, id)
	s.lru.Remove(entry.elem)
	s.mu.Unlock()
	s.closeCheckers(entry)
	chk, err := s.checkerFor(entry, cfg, scheme)
	if err != nil {
		return err
	}
	defer s.done(&checkCall{req: req, entry: entry, cfg: cfg, chk: chk})
	_, err = chk.Check(ctx, entry.Doc.Proof)
	return err
}
