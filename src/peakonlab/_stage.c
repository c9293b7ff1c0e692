/* One nonlinear RK4 stage of peakonlab on n characteristic nodes, as two loops.
 *
 * Every float operation is the one, and in the order, of the NumPy formulas the
 * tests keep as the oracle (tests/test_nonlinear.py::_reference_stage), so the
 * results are bit for bit theirs.  That holds only when the compiler neither fuses
 * a multiply and an add (build with -ffp-contract=off) nor reassociates (no
 * -ffast-math).  It reads only its workspace, whose rows and cosh/sinh table NumPy
 * fills before each call (its SIMD cosh and sinh do not round as libm does).
 */

typedef struct {
    long n;
    const double *cosh, *sinh; /* 3 x n each, of the args X, X - pi, pi + X */
    const double *rows; /* W, V, U, J, n each */
    const double *half, *dx2_12; /* panel weights of f and f', n - 1 each */
    const double *a, *b, *c; /* f[k-1], f[k], f[k+1] weights of f'[k], n - 2 each */
    double a0, b0, c0, a1, b1, c1; /* one-sided weights at the first and the last node */
    double half_m, m, M;
} stage;

static double density(const double *V, const double *U, const double *J, long k)
{
    return (V[k] * V[k] + U[k] * 0.5 * U[k]) * J[k]; /* g = (V^2 + U^2/2) J */
}

/* QP = (Q, P), 2 x n.  The running Hermite integrals of (cosh, sinh)(X) g from
 * the first node are kept in Q and P until the second loop turns them into the
 * convolutions. */
void stage_convolutions(const stage *w, double *QP)
{
    const long n = w->n;
    const double *V = w->rows + n, *U = w->rows + 2 * n, *J = w->rows + 3 * n;
    double *Q = QP, *P = QP + n;
    const double *ch = w->cosh, *sh = w->sinh;
    double gm = 0.0, g = density(V, U, J, 0), gn = density(V, U, J, 1);
    double fc_left = 0.0, fs_left = 0.0, dc_left = 0.0, ds_left = 0.0, low_c = 0.0, low_s = 0.0;
    for (long k = 0; k < n; k++) {
        double gp; /* three-point derivative of g */
        if (k == 0)
            gp = (w->a0 * g + w->b0 * gn) + w->c0 * density(V, U, J, 2);
        else if (k == n - 1)
            gp = (w->a1 * density(V, U, J, n - 3) + w->b1 * gm) + w->c1 * g;
        else
            gp = (g * w->b[k - 1] - gm * w->a[k - 1]) + gn * w->c[k - 1];
        double fc = ch[k] * g, fs = sh[k] * g; /* (cosh, sinh)(X) g and their s-derivatives */
        double dc = sh[k] * J[k] * g + ch[k] * gp, ds = ch[k] * J[k] * g + sh[k] * gp;
        if (k > 0) {
            double pc = (fc_left + fc) * w->half[k - 1] + (dc_left - dc) * w->dx2_12[k - 1];
            double ps = (fs_left + fs) * w->half[k - 1] + (ds_left - ds) * w->dx2_12[k - 1];
            low_c = k == 1 ? pc : low_c + pc; /* summed left to right */
            low_s = k == 1 ? ps : low_s + ps;
        }
        Q[k] = low_c, P[k] = low_s;
        fc_left = fc, fs_left = fs, dc_left = dc, ds_left = ds;
        gm = g, g = gn, gn = k + 2 < n ? density(V, U, J, k + 2) : 0.0;
    }
    const double *ch_lo = ch + n, *sh_lo = sh + n, *ch_hi = ch + 2 * n, *sh_hi = sh + 2 * n;
    const double low_c_end = Q[n - 1], low_s_end = P[n - 1];
    for (long k = 0; k < n; k++) {
        double low_c = Q[k], low_s = P[k], high_c = low_c_end - low_c, high_s = low_s_end - low_s;
        Q[k] = (sh_lo[k] * low_c - ch_lo[k] * low_s + sh_hi[k] * high_c - ch_hi[k] * high_s)
               * w->half_m;
        P[k] = (ch_lo[k] * low_c - sh_lo[k] * low_s + ch_hi[k] * high_c - sh_hi[k] * high_s)
               * w->half_m;
    }
}

/* dZ = (dX, dW, dV, dU, dJ), 5 x n, of Z = (X, W, V, U, J) given QP = (Q, P). */
void stage_derivative(const stage *w, const double *QP, double *dZ, double pmv)
{
    const long n = w->n;
    const double *W = w->rows, *V = w->rows + n, *U = w->rows + 2 * n, *J = w->rows + 3 * n;
    const double *Q = QP, *P = QP + n;
    const double *coshX = w->cosh, *sinhX = w->sinh, *ch_lo = w->cosh + n, *sh_lo = w->sinh + n;
    double *dX = dZ, *dW = dZ + n, *dV = dZ + 2 * n, *dU = dZ + 3 * n, *dJ = dZ + 4 * n;
    const double v0 = V[0], p0 = P[0], v0v0 = v0 * v0;
    for (long k = 0; k < n; k++) {
        double ph = ch_lo[k] * w->m, php = sh_lo[k] * w->m; /* phi, phi' of X */
        double vv = V[k] * V[k], half_uu = U[k] * 0.5 * U[k];
        dX[k] = ph - w->M + V[k] - v0;
        dW[k] = php * W[k] + (1.0 - coshX[k]) * pmv + (vv - v0v0) * 0.5 - P[k] + p0;
        dV[k] = ph * W[k] - sinhX[k] * pmv - Q[k];
        dU[k] = (W[k] - U[k]) * php + ph * V[k] - coshX[k] * pmv - half_uu + vv - P[k];
        dJ[k] = (php + U[k]) * J[k];
    }
    dX[0] = dX[n - 1] = 0.0; /* the peak characteristics are exact fixed points */
}
