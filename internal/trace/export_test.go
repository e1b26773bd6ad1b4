package trace

// CompareZipf lets the external catalog tests check zipfSampler
// against math/rand's Zipf.
var CompareZipf = compareZipf
