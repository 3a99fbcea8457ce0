"""Walkthrough: fixed/negated decomposition and block canonical forms.

Each identity is computed side by side with the public kernels and
asserted, so the script fails if one of them breaks.

Run: python demos/03_decomposition_and_block_forms.py
"""

from signconj import (
    Matrix,
    antisym_block_form,
    char_poly,
    classic_split,
    determinant,
    order2_minor_sum,
    parse_sign_vector,
    permanent,
    split,
    subspace_dims,
    sym_block_form,
)

a = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
c = parse_sign_vector("1,-1,1")

print("A =", a, "   c =", c)

pair = split(a, c)
print("\nPart fixed by the conjugation (entries where c_i*c_j = +1):")
print("  ", pair.sym)
print("Part negated by it (entries where c_i*c_j = -1):")
print("  ", pair.antisym)
assert pair.sym + pair.antisym == a
print("They reconstruct A: True")
print("Subspace dimensions for n=3, r=2 plus signs:", subspace_dims(3, 2))

print("\nOrder-2 principal minor sums are additive across the split:")
for tag, parts in (("sign split", pair), ("transpose split", classic_split(a))):
    lhs, s, t = (order2_minor_sum(m) for m in (a, parts.sym, parts.antisym))
    assert lhs == s + t
    print(f"  {tag}: {lhs} = {s} + {t}")

print("\nBlock-diagonal form of the fixed part:")
fixed = pair.sym
form = sym_block_form(fixed, c)
d, e = form.plus_block, form.minus_block
print("  permutation:", form.partition.permutation)
print("  plus block: ", d)
print("  minus block:", e)
print("  P^-1 (S) P: ", form.conjugated)

assert char_poly(fixed) == char_poly(d) * char_poly(e)
print("  char poly factors: True")
det_full, det_product = determinant(fixed), determinant(d) * determinant(e)
perm_full, perm_product = permanent(fixed), permanent(d) * permanent(e)
assert (det_full, perm_full) == (det_product, perm_product)
print(f"  det {det_full} = {det_product}, perm {perm_full} = {perm_product}")

print("\nBlock anti-diagonal form of the negated part:")
negated = pair.antisym
aform = antisym_block_form(negated, c)
f, g = aform.upper_block, aform.lower_block
print("  upper block:", f)
print("  lower block:", g)
print("  P^-1 (T) P: ", aform.conjugated)

n, r = negated.rows, f.rows
det_full, perm_full = determinant(negated), permanent(negated)
if 2 * r != n:
    assert det_full == perm_full == 0
    print(f"  unbalanced sign classes ({r} vs {n - r}):"
          f" det = {det_full}, perm = {perm_full} (both must vanish)")
else:
    det_blocks = (-1) ** r * determinant(f) * determinant(g)
    perm_blocks = permanent(f) * permanent(g)
    assert (det_full, perm_full) == (det_blocks, perm_blocks)
    print(f"  det {det_full} = (-1)^{r} * det(F) * det(G) = {det_blocks}")
    print(f"  perm {perm_full} = {perm_blocks}")
