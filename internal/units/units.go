// Package units defines the fixed-point data-element units used by the
// ETSI ITS message set (EN 302 637-2/-3, TS 102 894-2 common data
// dictionary) and conversions to and from SI values.
//
// ETSI ITS messages carry integers in awkward units — tenths of
// microdegrees for latitude, centimetres per second for speed, tenths
// of a degree for heading — with dedicated "unavailable" sentinel
// values. Keeping these conversions in one place avoids unit bugs at
// every encode/decode site.
package units

import "math"

// Latitude in 0.1 microdegree units (ETSI Latitude data element).
type Latitude int32

// Longitude in 0.1 microdegree units (ETSI Longitude data element).
type Longitude int32

// Sentinel values from the ETSI common data dictionary.
const (
	LatitudeUnavailable  Latitude  = 900000001
	LongitudeUnavailable Longitude = 1800000001
)

// Range limits for the coordinate data elements.
const (
	LatitudeMin  Latitude  = -900000000
	LatitudeMax  Latitude  = 900000001
	LongitudeMin Longitude = -1800000000
	LongitudeMax Longitude = 1800000001
)

// LatitudeFromDegrees converts degrees to the ETSI fixed-point unit,
// clamping to the valid range.
func LatitudeFromDegrees(deg float64) Latitude {
	v := int64(math.Round(deg * 1e7))
	if v < int64(LatitudeMin) {
		v = int64(LatitudeMin)
	}
	if v > int64(LatitudeMax)-1 {
		v = int64(LatitudeMax) - 1
	}
	return Latitude(v)
}

// Degrees converts the fixed-point latitude back to degrees.
func (l Latitude) Degrees() float64 { return float64(l) / 1e7 }

// LongitudeFromDegrees converts degrees to the ETSI fixed-point unit,
// clamping to the valid range.
func LongitudeFromDegrees(deg float64) Longitude {
	v := int64(math.Round(deg * 1e7))
	if v < int64(LongitudeMin) {
		v = int64(LongitudeMin)
	}
	if v > int64(LongitudeMax)-1 {
		v = int64(LongitudeMax) - 1
	}
	return Longitude(v)
}

// Degrees converts the fixed-point longitude back to degrees.
func (l Longitude) Degrees() float64 { return float64(l) / 1e7 }

// Speed in 0.01 m/s units (ETSI SpeedValue data element).
type Speed uint16

// Speed sentinels and limits.
const (
	SpeedStandstill  Speed = 0
	SpeedMax         Speed = 16382
	SpeedUnavailable Speed = 16383
)

// SpeedFromMS converts metres per second to the ETSI unit, clamping.
func SpeedFromMS(ms float64) Speed {
	if ms < 0 {
		ms = 0
	}
	v := int64(math.Round(ms * 100))
	if v > int64(SpeedMax) {
		v = int64(SpeedMax)
	}
	return Speed(v)
}

// MS converts the fixed-point speed to metres per second.
func (s Speed) MS() float64 { return float64(s) / 100 }

// Heading in 0.1 degree units, clockwise from north (ETSI HeadingValue).
type Heading uint16

// Heading sentinels and limits.
const (
	HeadingNorth       Heading = 0
	HeadingMax         Heading = 3600
	HeadingUnavailable Heading = 3601
)

// HeadingFromRadians converts a compass heading in radians to the ETSI
// unit.
func HeadingFromRadians(rad float64) Heading {
	deg := rad * 180 / math.Pi
	deg = math.Mod(deg, 360)
	if deg < 0 {
		deg += 360
	}
	v := int64(math.Round(deg * 10))
	if v >= int64(HeadingMax) {
		v -= int64(HeadingMax)
	}
	return Heading(v)
}

// Radians converts the fixed-point heading to radians.
func (h Heading) Radians() float64 { return float64(h) / 10 * math.Pi / 180 }

// Degrees converts the fixed-point heading to degrees.
func (h Heading) Degrees() float64 { return float64(h) / 10 }

// Curvature in 1/10000 per metre units (ETSI CurvatureValue), positive
// for left turns.
type Curvature int16

// CurvatureUnavailable is the sentinel for unknown curvature.
const CurvatureUnavailable Curvature = 1023

// StationID identifies an ITS station (ETSI StationID, 32 bits).
type StationID uint32

// StationType per the ETSI common data dictionary (subset relevant to
// the testbed).
type StationType uint8

// Station types used by the testbed.
const (
	StationTypeUnknown        StationType = 0
	StationTypePedestrian     StationType = 1
	StationTypeCyclist        StationType = 2
	StationTypeMoped          StationType = 3
	StationTypeMotorcycle     StationType = 4
	StationTypePassengerCar   StationType = 5
	StationTypeBus            StationType = 6
	StationTypeLightTruck     StationType = 7
	StationTypeHeavyTruck     StationType = 8
	StationTypeTrailer        StationType = 9
	StationTypeSpecialVehicle StationType = 10
	StationTypeTram           StationType = 11
	StationTypeRoadSideUnit   StationType = 15
)

// String implements fmt.Stringer.
func (t StationType) String() string {
	switch t {
	case StationTypePedestrian:
		return "pedestrian"
	case StationTypeCyclist:
		return "cyclist"
	case StationTypeMoped:
		return "moped"
	case StationTypeMotorcycle:
		return "motorcycle"
	case StationTypePassengerCar:
		return "passengerCar"
	case StationTypeBus:
		return "bus"
	case StationTypeLightTruck:
		return "lightTruck"
	case StationTypeHeavyTruck:
		return "heavyTruck"
	case StationTypeTrailer:
		return "trailer"
	case StationTypeSpecialVehicle:
		return "specialVehicle"
	case StationTypeTram:
		return "tram"
	case StationTypeRoadSideUnit:
		return "roadSideUnit"
	default:
		return "unknown"
	}
}

// DeltaTime is the GenerationDeltaTime of a CAM: TimestampIts mod 65536.
type DeltaTime uint16

// DeltaTimeFromTimestamp derives the CAM generationDeltaTime from a
// full ITS timestamp in milliseconds.
func DeltaTimeFromTimestamp(ts uint64) DeltaTime { return DeltaTime(ts % 65536) }

// SemiAxisLength in centimetres (ETSI SemiAxisLength), used in the
// position confidence ellipse.
type SemiAxisLength uint16

// SemiAxisUnavailable is the sentinel for unknown confidence.
const SemiAxisUnavailable SemiAxisLength = 4095

// SemiAxisFromMetres converts metres to the centimetre unit, clamping.
func SemiAxisFromMetres(m float64) SemiAxisLength {
	if m < 0 {
		return SemiAxisUnavailable
	}
	v := int64(math.Round(m * 100))
	if v > 4093 {
		v = 4094 // out of range indicator
	}
	return SemiAxisLength(v)
}
