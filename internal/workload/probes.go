package workload

// DetectorProbes returns the detectors table's overflow probes, one per
// memory region (heap, global, stack). Each writes past the end of an
// array; a checking strategy must stop it, while unchecked code runs on
// (the unchecked stack probe clobbers its loop counter and spins until
// the step limit).
func DetectorProbes() []Workload {
	return []Workload{
		{Name: "probe-heap", Description: "heap buffer overflow", Source: `
void main() {
	char *b = malloc(24);
	for (int i = 0; i < 40; i++) b[i] = 'A';
}`},
		{Name: "probe-global", Description: "global array overflow", Source: `
int g[8];
void main() { for (int i = 0; i <= 8; i++) g[i] = i; }`},
		{Name: "probe-stack", Description: "stack array overflow", Source: `
void smash() {
	int b[8];
	for (int i = 0; i <= 8; i++) b[i] = i;
}
void main() { smash(); }`},
	}
}
