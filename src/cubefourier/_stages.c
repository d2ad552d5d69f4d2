/* The butterfly stage kernel, loaded by kernels.py through ctypes.
 *
 * One stage mixes the two halves of every block of 2*h doubles, from block
 * block_lo up to block_hi, with a fixed 2x2 weight matrix.  Pairs are
 * independent, so the result is bitwise identical however the caller cuts
 * the block range into runs.  Each output is two multiplies then one add,
 * as in the numpy fallback: build with -ffp-contract=off so that none of
 * them is fused.  The caller checks dtype, layout and bounds.
 */
#include <stddef.h>

void stage_f64(double *v, double w00, double w01, double w10, double w11,
               ptrdiff_t h, ptrdiff_t block_lo, ptrdiff_t block_hi)
{
    for (double *x = v + 2 * h * block_lo; x < v + 2 * h * block_hi; x += 2 * h)
        for (ptrdiff_t k = 0; k < h; k++) {
            double lo = x[k], hi = x[k + h];
            x[k] = w00 * lo + w01 * hi;
            x[k + h] = w10 * lo + w11 * hi;
        }
}
