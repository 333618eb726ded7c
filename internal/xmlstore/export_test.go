package xmlstore

// Exported for the external generated-document differential test.
var (
	RequireTreesEqual   = requireTreesEqual
	RequireIndexesEqual = requireIndexesEqual
)
