"""The Carlitz module, its cyclotomic polynomials, and torsion.

Everything happens over A = F_3[T].  The Carlitz module C_T = T + tau is
the function-field analogue of the multiplicative group; its f-torsion
plays the role of roots of unity, and the cyclotomic polynomial Phi_f
cuts out the primitive torsion.
"""

from dforge import (field_make, PolyRing, ResidueRing, carlitz_module,
                    carlitz_cyclotomic, dm_torsion, DrinfeldModule,
                    rank1_universal)

F3 = field_make(3, 1, 1)
A = PolyRing(F3)
T = A.gen()

C = carlitz_module(A)
print("Carlitz module: C_T =", C.phi_T)
print("C_{T^2}       =", C.image(A.mul(T, T)))
print()

for f, name in [(T, "T"), (A.mul(T, T), "T^2"), ((1, 0, 1), "T^2+1")]:
    phi = carlitz_cyclotomic(A, f)
    print("deg Phi_%-6s = %2d  (= #(A/fA)^* = %d)"
          % (name, len(phi) - 1, len(ResidueRing(A, f).units())))
print()

# torsion of a concrete specialization: theta = 2 in F_3
phi = DrinfeldModule(A, F3, (2, 1))
tor = dm_torsion(phi, T)
print("Carlitz at theta=2: T-torsion lives in F_3^%d:" % tor.m, tor.points)

phi2 = DrinfeldModule(A, F3, (2, 0, 1))
tor2 = dm_torsion(phi2, T)
print("rank 2, phi_T = 2 + tau^2: 9 torsion points over F_9 "
      "(%d found, extension degree %d)" % (len(tor2.points), tor2.m))
print()

# the universal rank-1 module with mu(1) = 1
uni = rank1_universal(F3, T)
R = uni.ring
print("universal ring R' = A_T[lam]/(lam^2 + T)")
print("psi_T =", uni.psi.phi_T)
print("psi_T(1) =",
      R.repr_elem(uni.psi.image(T).eval(R.one(), ydom=R)),
      " (mu(1) = 1 is genuine T-torsion)")
