"""Walkthrough: fixed/negated decomposition and block canonical forms.

Run: python demos/03_decomposition_and_block_forms.py
"""

from signconj import (
    Matrix,
    antisym_block_form,
    classic_minor2_additivity,
    factor_invariants_antisym,
    factor_invariants_sym,
    minor2_additivity,
    parse_sign_vector,
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
print("They reconstruct A:", pair.sym + pair.antisym == a)
print("Subspace dimensions for n=3, r=2 plus signs:", subspace_dims(3, 2))

print("\nOrder-2 principal minor sums are additive across the split:")
lhs, s, t = minor2_additivity(a, c)
print(f"  {lhs} = {s} + {t}")
lhs, s, t = classic_minor2_additivity(a)
print(f"  transpose split: {lhs} = {s} + {t}")

print("\nBlock-diagonal form of the fixed part:")
form = sym_block_form(pair.sym, c)
print("  permutation:", form.permutation.images)
print("  plus block: ", form.plus_block)
print("  minus block:", form.minus_block)
print("  P^-1 (S) P: ", form.conjugated)

rep = factor_invariants_sym(pair.sym, form)
print("  char poly factors:", rep.char_full == rep.char_product)
print(f"  det {rep.det_full} = {rep.det_product}, perm {rep.perm_full} = {rep.perm_product}")

print("\nBlock anti-diagonal form of the negated part:")
aform = antisym_block_form(pair.antisym, c)
print("  upper block:", aform.upper_block)
print("  lower block:", aform.lower_block)
print("  P^-1 (T) P: ", aform.conjugated)

arep = factor_invariants_antisym(pair.antisym, aform)
if arep.det_blocks_signed is None:
    print(f"  unbalanced sign classes ({arep.plus_count} vs {arep.minus_count}):"
          f" det = {arep.det_full}, perm = {arep.perm_full} (both must vanish)")
else:
    print(f"  det {arep.det_full} = (-1)^{arep.sign_exponent} * det(F) * det(G)"
          f" = {arep.det_blocks_signed}")
    print(f"  perm {arep.perm_full} = {arep.perm_blocks}")
