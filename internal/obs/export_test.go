package obs

// ServiceSamples returns a fresh slice of one service's samples in time
// order (none: nil).
func (j *Journal) ServiceSamples(service string) []Sample {
	if j == nil {
		return nil
	}
	id, ok := j.ids[service]
	if !ok && service != "" {
		return nil
	}
	var out []Sample
	var prev svcCounters
	for i := range j.samples.n {
		if r := j.samples.at(i); r.service == id {
			out = append(out, r.sample(service, &prev))
		}
	}
	return out
}
