"""Scoped persistency bugs, live (Section 5.3 of the paper).

A producer threadblock persists pX (delayed in its persist buffer behind
an earlier fenced persist), then releases a flag.  With the correct
**device** scope, the release publishes only after pX is durable and the
consumer block reads 7.  With the buggy **block** scope, the flag
publishes immediately and the consumer reads stale data.

The same mismatch is shown in the axiomatic model on the litmus
library's ``scope_mismatch`` program: the block-scope release across
blocks creates no pmo edge, so the "pB durable without pA" crash image
becomes reachable; its device-scope twin forbids it.

Run:  python examples/persistency_bug_demo.py
"""

from repro import GPUSystem, ModelName, Scope, small_system
from repro.check.corpus import EXPECTATIONS, library_program, unmet_expectations
from repro.check.oracle import allowed_unconstrained


def run_demo(scope: Scope) -> int:
    system = GPUSystem(small_system(ModelName.SBRP, num_sms=2))
    pm = system.pm_create("pm", 4096)
    flag = system.malloc(128)
    out = system.malloc(128)
    pa, px = pm.word(0), pm.word(64)

    def kernel(w, pa, px, flag, out, scope):
        lead = w.lane == 0
        if w.block_id == 1 and w.warp_in_block == 0:
            yield w.st(pa, 1, mask=lead)
            yield w.ofence()
            yield w.st(px, 7, mask=lead)
            yield w.prel(flag, 1, scope)
        elif w.block_id == 0 and w.warp_in_block == 0:
            yield w.pacq(flag, Scope.DEVICE, spin=True)
            vals = yield w.ld(px, mask=lead)
            yield w.st(out, vals, mask=lead)

    system.launch(kernel, 2, args=(pa, px, flag.base, out.base, scope))
    system.sync()
    return system.read_word(out.base)


def main() -> None:
    print("== hardware simulation ==")
    correct = run_demo(Scope.DEVICE)
    buggy = run_demo(Scope.BLOCK)
    print(f"  device-scope release: consumer read pX = {correct}  (correct)")
    print(f"  block-scope release:  consumer read pX = {buggy}  (stale!)")

    print("== axiomatic model ==")
    buggy = library_program("scope_mismatch")
    bad = [
        image
        for image in map(dict, allowed_unconstrained(buggy))
        if image.get("pB") == 1 and "pA" not in image
    ]
    print(
        "  block-scope release across blocks makes the inconsistent "
        f"image {bad[0] if bad else '??'} reachable"
    )
    fixed = library_program("device_release_cross_block")
    unmet = unmet_expectations(fixed, EXPECTATIONS[fixed.name])
    print(
        "  device-scope release forbids it "
        f"({len(allowed_unconstrained(fixed))} allowed images, model check "
        f"{'PASS' if not unmet else 'FAIL'})"
    )
    if not bad or unmet:
        raise SystemExit("persistency_bug_demo: the model disagrees")
    print("persistency_bug_demo OK")


if __name__ == "__main__":
    main()
