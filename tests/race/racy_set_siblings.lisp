; Two sibling futures set! the same closed-over variable; the touches
; come after both spawns, so nothing orders the writes. One expression
; per line: RaceDetectSuiteTest feeds this to the line-based REPL.
(define (racy) (let ((x 0)) (let ((f (future (set! x 1))) (g (future (set! x 2)))) (touch f) (touch g) x)))
(racy)
