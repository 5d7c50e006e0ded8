// Package race reports whether the binary was built with the race
// detector. Allocation tests read it: under the detector the runtime has
// no tiny allocator and sync.Pool drops a quarter of what is put back, so
// what an operation allocates there is not what it allocates in a normal
// build.
package race
