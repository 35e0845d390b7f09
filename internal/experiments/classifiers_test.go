package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// productionModelSHA256 pins the serialized production classifier. Any change
// to featurization, the training loop's floating-point order, the Collection 2
// split or the Save format moves it, and with it every /v1/classify answer.
const productionModelSHA256 = "6a54a26d78cb299cb7b66b86b3f970d0470fdee824ebd84050b344ddace231cc"

func TestTrainedClassifierDigestPinned(t *testing.T) {
	var buf bytes.Buffer
	if err := TrainedClassifier().Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != productionModelSHA256 {
		t.Fatalf("production classifier digest = %s, want %s", got, productionModelSHA256)
	}
}
