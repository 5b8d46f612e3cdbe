package a

// Size exposes size to the external test.
var Size = size
